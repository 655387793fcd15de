"""Hypothesis templates: turn (mention, label) into entailment-ready text.

Three template families are supported. Two wrap the mention and label
surface in a fixed frame ("X is a Y.", "In this context, X is referring to
Y.") and one substitutes the label surface into the original sentence at
the mention's position. One renderer, :func:`type_candidates`, renders a
mention's premise and frame once for a sequence of labels; training pairs,
ranking hypotheses and dependency pairs (:func:`dependency_pair`, from two
type pairs) are all built from its output.
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
        """The type pairs, one per label: the only place type pairs are built."""
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


def raise_render_error(label: TypeLabel, exc: RenderingError) -> None:
    """An ``on_render_error`` handler that makes the first failing label raise."""
    raise exc


def type_candidates(
    instance: MentionInstance,
    labels: Sequence[TypeLabel],
    template: TemplateKind,
    on_render_error: Callable[[TypeLabel, RenderingError], None] | None = None,
) -> TypeCandidates:
    """Render the instance's premise and frame once, and each label's surface.

    A label cannot be rendered when the mention is empty or, failing that,
    when its surface is empty. Such a label is left out and, when a handler
    is given, reported through ``on_render_error``, in the given order.
    """
    premise = render_premise(instance)
    capitalize = False
    if template is TemplateKind.TAXONOMIC:
        head, tail = f"{instance.mention} is a ", "."
    elif template is TemplateKind.CONTEXTUAL:
        head, tail = f"In this context, {instance.mention} is referring to ", "."
    else:
        start, end = mention_span_in_premise(instance)
        head, tail = premise[:start], premise[end:]
        capitalize = start == 0
    surfaces = [label.surface for label in labels]
    # Without capitalization a label fails only for an empty mention or surface.
    if instance.mention and not capitalize and all(surfaces):
        kept, failed = labels, []
    else:
        kept, surfaces, failed = [], [], []
        for i, label in enumerate(labels):
            surface = label.surface
            if not instance.mention:
                error = f"instance {instance.id!r} has an empty mention; no description possible"
            elif not surface:
                error = f"label {label.raw!r} has an empty surface form"
            else:
                kept.append(label)
                surfaces.append(surface[0].upper() + surface[1:] if capitalize else surface)
                continue
            failed.append(i)
            if on_render_error is not None:
                on_render_error(label, RenderingError(error))
    return TypeCandidates(
        instance_id=instance.id,
        template=template,
        premise=premise,
        head=head,
        tail=tail,
        labels=kept,
        surfaces=surfaces,
        failed=tuple(failed),
    )


def dependency_pair(
    descendant: PremiseHypothesisPair, ancestor: PremiseHypothesisPair
) -> PremiseHypothesisPair:
    """Pair a finer type's hypothesis (as premise) with a coarser one's.

    Both are type pairs of one instance. Only the framed templates apply:
    substituting two different labels into the sentence yields two
    unrelated sentences, so substitution runs must skip dependency pairs.
    """
    if descendant.template is TemplateKind.SUBSTITUTION:
        raise UnsupportedTemplateError(
            "dependency pairs cannot be rendered with the substitution template"
        )
    return PremiseHypothesisPair(
        premise=descendant.hypothesis,
        hypothesis=ancestor.hypothesis,
        kind=PairKind.DEPENDENCY,
        instance_id=descendant.instance_id,
        label_raw=descendant.label_raw,
        template=descendant.template,
    )


def render_description(
    template: TemplateKind, instance: MentionInstance, label: TypeLabel
) -> str:
    """Render the hypothesis asserting that the mention has the given type."""
    return build_type_pair(instance, label, template).hypothesis


def build_type_pair(
    instance: MentionInstance, label: TypeLabel, template: TemplateKind
) -> PremiseHypothesisPair:
    """Pair the instance's sentence with one candidate type description."""
    [pair] = type_candidates(instance, [label], template, raise_render_error).pairs()
    return pair


def build_dependency_pair(
    instance: MentionInstance, dep: DependencyPair, template: TemplateKind
) -> PremiseHypothesisPair:
    """Pair a finer type description (premise) with a coarser one (hypothesis)."""
    labels = [dep.descendant, dep.ancestor]
    return dependency_pair(*type_candidates(instance, labels, template, raise_render_error).pairs())


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
