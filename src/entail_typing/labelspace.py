"""Label vocabularies: path parsing, ancestors, dependency pairs, sampling.

Handles three vocabulary styles: fully hierarchical path labels
(``/location/transit/bridge``), mixed vocabularies where only some labels
carry paths, and flat free-form vocabularies optionally partitioned into
specificity tiers (general / fine / ultra-fine).
"""

import enum
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from ._util import numbered_lines
from .errors import SamplingError, ValidationError


class Tier(enum.Enum):
    """Specificity tier; the index orders fineness (ultra-fine is finest)."""

    ULTRAFINE = "ultrafine"
    FINE = "fine"
    GENERAL = "general"
    UNSPECIFIED = "unspecified"

    @property
    def fineness(self) -> int:
        """Smaller means finer; UNSPECIFIED is incomparable."""
        order = {Tier.ULTRAFINE: 0, Tier.FINE: 1, Tier.GENERAL: 2}
        if self not in order:
            raise ValueError("unspecified tier has no fineness rank")
        return order[self]

    @property
    def comparable(self) -> bool:
        return self is not Tier.UNSPECIFIED


@dataclass(frozen=True)
class TypeLabel:
    """A type label: raw dataset string, path segments, tier, template surface."""

    raw: str
    segments: tuple[str, ...]
    tier: Tier
    surface: str

    @property
    def hierarchical(self) -> bool:
        return self.raw.startswith("/")


@dataclass(frozen=True)
class DependencyPair:
    """A (finer, coarser) label pair whose descriptions entail one another."""

    descendant: TypeLabel
    ancestor: TypeLabel

    def __post_init__(self):
        if self.descendant == self.ancestor:
            raise ValidationError(f"reflexive dependency pair for {self.descendant.raw!r}")


def parse_label(raw: str, tier_partition: dict[Tier, frozenset[str]] | None = None) -> TypeLabel:
    """Parse a raw label string into a :class:`TypeLabel`.

    Labels starting with "/" are split into path segments; the surface form
    is the last segment with underscores turned into spaces. Flat labels are
    a single segment and keep their text (spaces included) as the surface.
    """
    if not raw:
        raise ValidationError("empty label string")
    if raw.startswith("/"):
        segments = tuple(s for s in raw.split("/") if s)
        if not segments:
            raise ValidationError(f"label {raw!r} has no path components")
    else:
        segments = (raw,)
    surface = segments[-1].replace("_", " ")
    tier = Tier.UNSPECIFIED
    if tier_partition:
        for t, members in tier_partition.items():
            if raw in members:
                tier = t
                break
    return TypeLabel(raw=raw, segments=segments, tier=tier, surface=surface)


class LabelVocabulary:
    """Immutable label space with optional ontology paths and tier partition."""

    def __init__(
        self,
        labels: list[TypeLabel],
        tier_partition: dict[Tier, frozenset[str]] | None = None,
    ):
        self._by_raw: dict[str, TypeLabel] = {}
        for label in labels:
            if label.raw in self._by_raw:
                raise ValidationError(f"duplicate label {label.raw!r} in vocabulary")
            self._by_raw[label.raw] = label
        self.tier_partition = tier_partition
        self.has_ontology = any(len(l.segments) > 1 for l in labels)
        self._sorted_raws = tuple(sorted(self._by_raw))
        self._sorted_by_tier: dict[Tier, tuple[str, ...]] = {}
        if tier_partition:
            for t in Tier:
                members = tier_partition.get(t, frozenset())
                self._sorted_by_tier[t] = tuple(sorted(r for r in members if r in self._by_raw))

    @classmethod
    def from_raws(
        cls,
        raws: list[str],
        tier_partition: dict[Tier, frozenset[str]] | None = None,
    ) -> "LabelVocabulary":
        return cls([parse_label(r, tier_partition) for r in raws], tier_partition)

    def __len__(self) -> int:
        return len(self._by_raw)

    def __contains__(self, raw: str) -> bool:
        return raw in self._by_raw

    def __iter__(self):
        return iter(self.labels)

    @cached_property
    def labels(self) -> tuple[TypeLabel, ...]:
        """Every label in vocabulary order (ascending raw), built on first use."""
        return tuple(map(self._by_raw.__getitem__, self._sorted_raws))

    @property
    def sorted_raws(self) -> tuple[str, ...]:
        return self._sorted_raws

    def get(self, raw: str) -> TypeLabel:
        if raw not in self._by_raw:
            raise KeyError(f"label {raw!r} not in vocabulary")
        return self._by_raw[raw]

    def resolve(self, raw: str) -> TypeLabel:
        """Look up a label, parsing it afresh if it is not in the vocabulary.

        Used for implicit ancestors: path prefixes of a vocabulary member
        need not themselves be listed.
        """
        if raw in self._by_raw:
            return self._by_raw[raw]
        return parse_label(raw, self.tier_partition)

    def tier_members(self, tier: Tier) -> tuple[str, ...]:
        return self._sorted_by_tier.get(tier, ())


def load_vocabulary(path: str | Path, tier_path: str | Path | None = None) -> LabelVocabulary:
    """Read a vocabulary file (one raw label per line, UTF-8).

    The optional tier file maps ``label<TAB>tier`` with tier one of
    general / fine / ultrafine (``ultra-fine`` and ``ultra_fine`` are
    accepted spellings).
    """
    raws = [line for _, line in numbered_lines(path)]
    tier_partition = None
    if tier_path is not None:
        by_tier: dict[Tier, set[str]] = {}
        for lineno, line in numbered_lines(tier_path):
            if "\t" not in line:
                raise ValidationError(f"{tier_path}:{lineno}: expected label<TAB>tier")
            raw, tier_name = line.split("\t", 1)
            tier_name = tier_name.strip().lower().replace("-", "").replace("_", "")
            if tier_name not in ("general", "fine", "ultrafine"):
                raise ValidationError(f"{tier_path}:{lineno}: unknown tier {tier_name!r}")
            by_tier.setdefault(Tier(tier_name), set()).add(raw)
        tier_partition = {t: frozenset(m) for t, m in by_tier.items()}
    return LabelVocabulary.from_raws(raws, tier_partition)


def ancestors(label: TypeLabel, vocab: LabelVocabulary) -> list[TypeLabel]:
    """Strict path prefixes of a hierarchical label, nearest first.

    Flat labels have no ancestors. Prefixes missing from the vocabulary are
    synthesized (implicit ancestors).
    """
    if not label.hierarchical or len(label.segments) < 2:
        return []
    result = []
    for depth in range(len(label.segments) - 1, 0, -1):
        raw = "/" + "/".join(label.segments[:depth])
        result.append(vocab.resolve(raw))
    return result


def induce_dependency_pairs(
    gold: set[TypeLabel], vocab: LabelVocabulary
) -> set[DependencyPair]:
    """Derive (descendant, ancestor) pairs from gold labels.

    With an ontology, each label of the gold set's closure under implicit
    ancestors (:func:`positive_label_set`) is paired with every ancestor.
    Without an ontology but with a tier partition, every cross-tier pair of
    gold labels with the descendant strictly finer is emitted. Otherwise no
    pairs exist.
    """
    if not gold:
        raise ValidationError("induce_dependency_pairs requires a nonempty gold set")
    if vocab.has_ontology:
        return {
            DependencyPair(descendant=label, ancestor=anc)
            for label in positive_label_set(gold, vocab)
            for anc in ancestors(label, vocab)
        }
    pairs: set[DependencyPair] = set()
    if vocab.tier_partition:
        comparable = [l for l in gold if l.tier.comparable]
        for fine_label in comparable:
            for coarse_label in comparable:
                if fine_label.tier.fineness < coarse_label.tier.fineness:
                    pairs.add(DependencyPair(descendant=fine_label, ancestor=coarse_label))
    return pairs


def positive_label_set(gold: set[TypeLabel], vocab: LabelVocabulary) -> set[TypeLabel]:
    """Gold labels plus any induced implicit ancestors (the ranking positives)."""
    positives = set(gold)
    if vocab.has_ontology:
        for label in gold:
            positives.update(ancestors(label, vocab))
    return positives


_MAX_REJECTION_DRAWS = 64


def _uniform_excluding(
    candidates: tuple[str, ...], excluded: set[str], rng: random.Random, what: str
) -> str:
    """Uniform draw from ``candidates`` minus ``excluded``.

    Rejection sampling keeps large vocabularies cheap; the fallback
    materializes the complement so the draw stays exactly uniform even when
    the exclusion set dominates.
    """
    if len(excluded) < len(candidates):
        for _ in range(_MAX_REJECTION_DRAWS):
            pick = candidates[rng.randrange(len(candidates))]
            if pick not in excluded:
                return pick
    pool = [c for c in candidates if c not in excluded]
    if not pool:
        raise SamplingError(f"no {what} candidates left after exclusions")
    return pool[rng.randrange(len(pool))]


def sample_negative_type(
    vocab: LabelVocabulary, positives: set[str], rng: random.Random
) -> TypeLabel:
    """Draw a label uniformly from the vocabulary minus the positive set."""
    raw = _uniform_excluding(vocab.sorted_raws, positives, rng, "negative-type")
    return vocab.get(raw)


def sample_negative_ancestor(
    pair: DependencyPair,
    vocab: LabelVocabulary,
    true_ancestors: set[str],
    rng: random.Random,
) -> TypeLabel:
    """Draw a false ancestor for a dependency pair.

    The pool excludes the descendant and all true ancestors, and is
    restricted to the true ancestor's tier when a tier partition exists, so
    the contrast stays at the same granularity.
    """
    excluded = set(true_ancestors) | {pair.descendant.raw}
    if vocab.tier_partition and pair.ancestor.tier.comparable:
        candidates = vocab.tier_members(pair.ancestor.tier)
    else:
        candidates = vocab.sorted_raws
    raw = _uniform_excluding(candidates, excluded, rng, "negative-ancestor")
    return vocab.get(raw)
