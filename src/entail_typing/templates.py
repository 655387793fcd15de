"""Hypothesis templates: turn (mention, label) into entailment-ready text.

Three template families are supported. Two wrap the mention and label
surface in a fixed frame ("X is a Y.", "In this context, X is referring to
Y.") and one substitutes the label surface into the original sentence at
the mention's position. The same family is used for training pairs and for
candidate ranking at inference time.
"""

import enum
from dataclasses import dataclass
from typing import Callable

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


def description_renderer(
    template: TemplateKind, instance: MentionInstance
) -> Callable[[TypeLabel], str]:
    """Return a function rendering this instance's description for any label.

    The mention is checked, and for substitution the premise rendered and
    the mention located, once here; the returned function only checks the
    label's surface and formats the text. Its errors, and which of them
    wins, are those of :func:`render_description`.
    """
    empty_mention = unlocated = None
    capitalize = False
    if not instance.mention:
        empty_mention = f"instance {instance.id!r} has an empty mention; no description possible"
    if template is TemplateKind.TAXONOMIC:
        head, tail = f"{instance.mention} is a ", "."
    elif template is TemplateKind.CONTEXTUAL:
        head, tail = f"In this context, {instance.mention} is referring to ", "."
    else:
        premise = render_premise(instance)
        start, end = mention_span_in_premise(instance)
        if premise[start:end] != instance.mention:
            unlocated = (
                f"mention {instance.mention!r} cannot be located in the premise of "
                f"instance {instance.id!r}"
            )
        head, tail, capitalize = premise[:start], premise[end:], start == 0

    def render(label: TypeLabel) -> str:
        if empty_mention:
            raise RenderingError(empty_mention)
        surface = label.surface
        if not surface:
            raise RenderingError(f"label {label.raw!r} has an empty surface form")
        if unlocated:
            raise RenderingError(unlocated)
        if capitalize:
            surface = surface[0].upper() + surface[1:]
        return head + surface + tail

    return render


def render_description(
    template: TemplateKind, instance: MentionInstance, label: TypeLabel
) -> str:
    """Render the hypothesis asserting that the mention has the given type."""
    return description_renderer(template, instance)(label)


def type_pair_renderer(
    instance: MentionInstance, template: TemplateKind
) -> Callable[[TypeLabel], PremiseHypothesisPair]:
    """Return a function pairing this instance's sentence with any label's description.

    The premise is rendered once, so ranking a whole vocabulary formats
    only the per-label hypothesis text.
    """
    premise = render_premise(instance)
    describe = description_renderer(template, instance)

    def render(label: TypeLabel) -> PremiseHypothesisPair:
        return PremiseHypothesisPair(
            premise=premise,
            hypothesis=describe(label),
            kind=PairKind.TYPE,
            instance_id=instance.id,
            label_raw=label.raw,
            template=template,
        )

    return render


def build_type_pair(
    instance: MentionInstance, label: TypeLabel, template: TemplateKind
) -> PremiseHypothesisPair:
    """Pair the instance's sentence with one candidate type description."""
    return type_pair_renderer(instance, template)(label)


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
    return PremiseHypothesisPair(
        premise=render_description(template, instance, dep.descendant),
        hypothesis=render_description(template, instance, dep.ancestor),
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
