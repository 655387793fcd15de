"""Hypothesis templates: turn (mention, label) into entailment-ready text.

Three template families are supported. Two wrap the mention and label
surface in a fixed frame ("X is a Y.", "In this context, X is referring to
Y.") and one substitutes the label surface into the original sentence at
the mention's position. The same family is used for training pairs and for
candidate ranking at inference time. For ranking, :func:`type_candidates`
renders one mention's premise and frame once for a whole label sequence.
"""

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

from .corpus import MentionInstance, mention_span_in_premise, render_premise
from .errors import RenderingError, UnsupportedTemplateError, ValidationError
from .labelspace import DependencyPair, TypeLabel


class TemplateKind(enum.Enum):
    TAXONOMIC = "taxonomic"
    CONTEXTUAL = "contextual"
    SUBSTITUTION = "substitution"


class PairKind(enum.Enum):
    TYPE = "type"
    DEPENDENCY = "dependency"


@dataclass(frozen=True)
class PremiseHypothesisPair:
    """One scorer input: a premise sentence and a candidate type description.

    Type-kind pairs ground a label description against the mention's
    sentence. Dependency-kind pairs put two label descriptions in an
    entailment relation (finer description as premise, coarser as
    hypothesis); ``label_raw`` then names the descendant.
    """

    premise: str
    hypothesis: str
    kind: PairKind
    instance_id: str
    label_raw: str
    template: TemplateKind

    def __post_init__(self):
        if not self.premise:
            raise ValidationError(f"empty premise for instance {self.instance_id!r}")
        if not self.hypothesis:
            raise ValidationError(f"empty hypothesis for instance {self.instance_id!r}")


class _Frame:
    """One instance's hypothesis frame: a description is ``head + surface + tail``.

    The mention is checked, and for substitution the premise rendered and
    the mention located, once here. :meth:`surface` checks a label and
    returns the text that fills the frame; its errors, in order of
    precedence, are an empty mention and an empty surface.
    """

    __slots__ = ("premise", "head", "tail", "capitalize", "_empty_mention")

    def __init__(self, template: TemplateKind, instance: MentionInstance):
        self.premise = render_premise(instance)
        self._empty_mention = None
        self.capitalize = False
        if not instance.mention:
            self._empty_mention = (
                f"instance {instance.id!r} has an empty mention; no description possible"
            )
        if template is TemplateKind.TAXONOMIC:
            self.head, self.tail = f"{instance.mention} is a ", "."
        elif template is TemplateKind.CONTEXTUAL:
            self.head, self.tail = f"In this context, {instance.mention} is referring to ", "."
        else:
            start, end = mention_span_in_premise(instance)
            self.head, self.tail = self.premise[:start], self.premise[end:]
            self.capitalize = start == 0

    @property
    def plain(self) -> bool:
        """True when every label with a nonempty surface fills the frame as is."""
        return not (self._empty_mention or self.capitalize)

    def surface(self, label: TypeLabel) -> str:
        if self._empty_mention:
            raise RenderingError(self._empty_mention)
        surface = label.surface
        if not surface:
            raise RenderingError(f"label {label.raw!r} has an empty surface form")
        if self.capitalize:
            surface = surface[0].upper() + surface[1:]
        return surface

    def describe(self, label: TypeLabel) -> str:
        return self.head + self.surface(label) + self.tail


def render_description(
    template: TemplateKind, instance: MentionInstance, label: TypeLabel
) -> str:
    """Render the hypothesis asserting that the mention has the given type."""
    return _Frame(template, instance).describe(label)


@dataclass(frozen=True)
class TypeCandidates:
    """One mention's type hypotheses: one premise, one frame, many labels.

    Hypothesis ``i`` is ``head + surfaces[i] + tail``. ``labels`` and
    ``surfaces`` are parallel and keep the order the labels were given in,
    leaving out those that cannot be rendered; ``failed`` holds the
    positions of those in that order.
    """

    instance_id: str
    template: TemplateKind
    premise: str
    head: str
    tail: str
    labels: Sequence[TypeLabel]
    surfaces: Sequence[str]
    failed: tuple[int, ...]

    def pairs(self) -> list[PremiseHypothesisPair]:
        """The type pairs, one per label, exactly as :func:`build_type_pair` builds them."""
        return [
            PremiseHypothesisPair(
                premise=self.premise,
                hypothesis=self.head + surface + self.tail,
                kind=PairKind.TYPE,
                instance_id=self.instance_id,
                label_raw=label.raw,
                template=self.template,
            )
            for label, surface in zip(self.labels, self.surfaces)
        ]


def type_candidates(
    instance: MentionInstance,
    labels: Sequence[TypeLabel],
    template: TemplateKind,
    on_render_error: Callable[[TypeLabel, RenderingError], None] | None = None,
) -> TypeCandidates:
    """Render the instance's premise and frame once, and each label's surface.

    A label that cannot be rendered is left out and, when a handler is
    given, reported through ``on_render_error``, in the given order.
    """
    frame = _Frame(template, instance)
    surfaces = [label.surface for label in labels]
    # A plain frame fails a label only for an empty surface.
    if frame.plain and all(surfaces):
        kept, failed = labels, []
    else:
        kept, surfaces, failed = [], [], []
        for i, label in enumerate(labels):
            try:
                surfaces.append(frame.surface(label))
            except RenderingError as exc:
                failed.append(i)
                if on_render_error is not None:
                    on_render_error(label, exc)
            else:
                kept.append(label)
    return TypeCandidates(
        instance_id=instance.id,
        template=template,
        premise=frame.premise,
        head=frame.head,
        tail=frame.tail,
        labels=kept,
        surfaces=surfaces,
        failed=tuple(failed),
    )


def build_type_pair(
    instance: MentionInstance, label: TypeLabel, template: TemplateKind
) -> PremiseHypothesisPair:
    """Pair the instance's sentence with one candidate type description."""
    frame = _Frame(template, instance)
    return PremiseHypothesisPair(
        premise=frame.premise,
        hypothesis=frame.describe(label),
        kind=PairKind.TYPE,
        instance_id=instance.id,
        label_raw=label.raw,
        template=template,
    )


def build_dependency_pair(
    instance: MentionInstance, dep: DependencyPair, template: TemplateKind
) -> PremiseHypothesisPair:
    """Pair a finer type description (premise) with a coarser one (hypothesis).

    Only the framed templates apply: substituting two different labels into
    the sentence yields two unrelated sentences, so substitution runs must
    skip dependency pairs.
    """
    if template is TemplateKind.SUBSTITUTION:
        raise UnsupportedTemplateError(
            "dependency pairs cannot be rendered with the substitution template"
        )
    frame = _Frame(template, instance)
    return PremiseHypothesisPair(
        premise=frame.describe(dep.descendant),
        hypothesis=frame.describe(dep.ancestor),
        kind=PairKind.DEPENDENCY,
        instance_id=instance.id,
        label_raw=dep.descendant.raw,
        template=template,
    )


def pair_to_record(pair: PremiseHypothesisPair) -> dict:
    """Serialize a pair for the JSONL dump consumed by external tooling."""
    return {
        "premise": pair.premise,
        "hypothesis": pair.hypothesis,
        "kind": pair.kind.value,
        "instance_id": pair.instance_id,
        "label": pair.label_raw,
        "template": pair.template.value,
    }
