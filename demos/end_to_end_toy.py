"""Type a small corpus end to end with the word-overlap scorer.

No trained model is involved. The overlap scorer counts how many content
words of each hypothesis already appear in the sentence, which is enough
to type mentions whose category is stated outright. The demo ranks all
candidates, applies a threshold with a top-one fallback, and prints the
evaluation report with frequency-bucket breakdowns.
"""

from entail_typing import (
    Dataset,
    FallbackPolicy,
    LabelVocabulary,
    MentionInstance,
    OverlapScorer,
    PredictionConfig,
    TemplateKind,
    evaluate,
    frequency_buckets,
    predict_dataset,
    rank_all_candidates,
    report_to_text,
)


def inst(split, n, left, mention, right, gold):
    return MentionInstance(
        id=f"{split}-{n:06d}",
        left_tokens=tuple(left.split()),
        mention=mention,
        right_tokens=tuple(right.split()),
        gold_labels=frozenset(gold),
    )


TRAIN = Dataset(
    name="toy", split="train",
    instances=(
        inst("train", 0, "", "Miles", "was a trumpet player .", ["musician", "person"]),
        inst("train", 1, "the", "festival", "ran for days .", ["event"]),
        inst("train", 2, "", "Kyoto", "is an old city .", ["city"]),
        inst("train", 3, "", "Ada", "wrote programs .", ["person"]),
    ),
)

TEST = Dataset(
    name="toy", split="test",
    instances=(
        inst("test", 0, "the", "violinist", ", a musician at heart , bowed .", ["musician", "person"]),
        inst("test", 1, "", "Lyon", "is a city on two rivers .", ["city"]),
        inst("test", 2, "the", "derby", ", an event for all , closed early .", ["event"]),
        inst("test", 3, "", "Turing", "proved theorems .", ["person"]),
    ),
)

VOCAB = LabelVocabulary.from_raws(["city", "event", "musician", "person"])


def main():
    scorer = OverlapScorer()
    # every hypothesis repeats the mention, so each label scores at least
    # 0.5 here; a 0.6 threshold keeps only genuine surface matches
    config = PredictionConfig(
        threshold=0.6, fallback=FallbackPolicy.top1(), template=TemplateKind.TAXONOMIC
    )

    first = TEST.instances[0]
    print("ranking for", first.id)
    for scored in rank_all_candidates(first, VOCAB, scorer, config.template):
        print(f"  {scored.label.raw:<10} {scored.score:.2f}")
    print()

    preds = predict_dataset(TEST, VOCAB, scorer, config)
    for pred in preds:
        cleared = pred.top[0].score >= config.threshold  # top holds the best entries
        note = "" if cleared else "   (nothing cleared, top1 fallback)"
        print(f"{pred.instance_id}: chosen {sorted(pred.chosen)}{note}")
    print()

    golds = {i.id: set(i.gold_labels) for i in TEST}
    buckets = frequency_buckets(TRAIN, TEST, (0, 1, 2))
    report = evaluate(preds, golds, buckets)
    print(report_to_text(report))


if __name__ == "__main__":
    main()
