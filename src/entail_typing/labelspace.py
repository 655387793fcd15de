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
from itertools import compress, repeat
from operator import is_
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


def capitalize(surface: str) -> str:
    """A surface with its first character upper-cased, as a sentence starts."""
    return surface[:1].upper() + surface[1:]


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
    tier = Tier.UNSPECIFIED
    if tier_partition:
        for t, members in tier_partition.items():
            if raw in members:
                tier = t
                break
    return _build_label(raw, tier)


def _build_label(raw: str, tier: Tier, _set=object.__setattr__) -> TypeLabel:
    """The :class:`TypeLabel` of ``raw`` in ``tier``, parsed as :func:`parse_label` says.

    The fields are set as the frozen dataclass's own ``__init__`` sets them,
    without its keyword call; a vocabulary load builds one label per line.
    """
    if not raw:
        raise ValidationError("empty label string")
    if raw[0] == "/":
        segments = tuple(s for s in raw.split("/") if s)
        if not segments:
            raise ValidationError(f"label {raw!r} has no path components")
    else:
        segments = (raw,)
    label = object.__new__(TypeLabel)
    _set(label, "raw", raw)
    _set(label, "segments", segments)
    _set(label, "tier", tier)
    _set(label, "surface", segments[-1].replace("_", " "))
    return label


class LabelVocabulary:
    """Immutable label space with optional ontology paths and tier partition."""

    def __init__(
        self,
        labels: list[TypeLabel],
        tier_partition: dict[Tier, frozenset[str]] | None = None,
    ):
        self._by_raw: dict[str, TypeLabel] = {label.raw: label for label in labels}
        if len(self._by_raw) != len(labels):
            seen: set[str] = set()
            for label in labels:
                if label.raw in seen:
                    raise ValidationError(f"duplicate label {label.raw!r} in vocabulary")
                seen.add(label.raw)
        self.tier_partition = tier_partition
        self.has_ontology = any(len(l.segments) > 1 for l in labels)
        self._sorted_raws = tuple(sorted(self._by_raw))
        self._sorted_by_tier: dict[Tier, tuple[str, ...]] = {}
        if tier_partition:
            # A list, then one tuple of its size: a tuple grown from an iterator is
            # reallocated as it grows, which left heap holes worth about 0.9 MB of
            # peak RSS in 2-second ufet_predict bench runs.
            for t in Tier:
                members = tier_partition.get(t)
                self._sorted_by_tier[t] = (
                    tuple([r for r in self._sorted_raws if r in members]) if members else ()
                )

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

    @cached_property
    def surfaces(self) -> tuple[str, ...]:
        """Every label's surface in vocabulary order, built on first use."""
        return tuple(label.surface for label in self.labels)

    @cached_property
    def has_empty_surface(self) -> bool:
        """Whether some label's surface is empty, found on first use."""
        return not all(self.surfaces)

    @cached_property
    def capitalized_surfaces(self) -> tuple[str, ...]:
        """:func:`capitalize` of every surface in vocabulary order, built on first use."""
        return tuple(map(capitalize, self.surfaces))

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


# A tier file's tier names, lowercased with "-" and "_" dropped. A name is
# looked up as written first, and normalized only when that misses.
_TIER_NAMES = {t.value: t for t in (Tier.GENERAL, Tier.FINE, Tier.ULTRAFINE)}


def load_vocabulary(path: str | Path, tier_path: str | Path | None = None) -> LabelVocabulary:
    """Read a vocabulary file (one raw label per line, UTF-8).

    The optional tier file maps ``label<TAB>tier`` with tier one of
    general / fine / ultrafine, in any case, with ``-`` or ``_`` anywhere
    and surrounding spaces (``Ultra-Fine``, ``ultra_fine`` and `` fine``
    are accepted spellings). Its labels are stripped as vocabulary lines
    are, so a space before the tab is not part of the label. A label may
    repeat only with the same tier, and may be one the vocabulary lacks.
    In both files a leading UTF-8 byte order mark is dropped and blank
    lines are skipped. A bad line in either file raises naming
    ``path:line``.

    The result equals ``LabelVocabulary.from_raws(raws, tier_partition)``
    with ``tier_partition`` built from the tier file, but each label's tier
    is read from one label-to-tier dict rather than probed tier by tier.
    """
    raws = [line for _, line in numbered_lines(path)]
    tier_of: dict[str, Tier] = {}
    tier_partition = None
    if tier_path is not None:
        tier_of = _read_tiers(tier_path)
        tiers = tier_of.values()
        tier_partition = {}
        for t in _TIER_NAMES.values():
            # compress and is_ run in C; grouping by Tier would call Enum.__hash__ per label
            if members := frozenset(compress(tier_of, map(is_, tiers, repeat(t)))):
                tier_partition[t] = members
    unspecified = Tier.UNSPECIFIED
    try:
        labels = [_build_label(raw, tier_of.get(raw, unspecified)) for raw in raws]
        return LabelVocabulary(labels, tier_partition)
    except ValidationError as exc:
        raise (_first_bad_label(path) or exc) from None


def _read_tiers(tier_path: str | Path) -> dict[str, Tier]:
    """Each label of a tier file, stripped, mapped to its tier; a bad line raises naming it."""
    tier_of: dict[str, Tier] = {}
    for lineno, line in numbered_lines(tier_path):
        raw, tab, name = line.partition("\t")
        if not tab:
            raise ValidationError(f"{tier_path}:{lineno}: expected label<TAB>tier")
        tier = _TIER_NAMES.get(name)
        if tier is None:
            name = name.strip().lower().replace("-", "").replace("_", "")
            tier = _TIER_NAMES.get(name)
            if tier is None:
                raise ValidationError(f"{tier_path}:{lineno}: unknown tier {name!r}")
        raw = raw.rstrip()
        if tier_of.setdefault(raw, tier) is not tier:
            raise ValidationError(
                f"{tier_path}:{lineno}: label {raw!r} is {tier_of[raw].value} "
                f"on an earlier line, not {tier.value}"
            )
    return tier_of


def _first_bad_label(path: str | Path) -> ValidationError | None:
    """The error of a vocabulary file's first duplicate or unparseable label, naming its line.

    Only a failed load calls this, so the common path keeps no line numbers.
    """
    seen: set[str] = set()
    for lineno, raw in numbered_lines(path):
        if raw in seen:
            return ValidationError(f"{path}:{lineno}: duplicate label {raw!r} in vocabulary")
        try:
            parse_label(raw)
        except ValidationError as exc:
            return ValidationError(f"{path}:{lineno}: {exc}")
        seen.add(raw)
    return None


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
