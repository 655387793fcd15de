"""Score hypotheses through a child process speaking the JSONL wire protocol.

Any model that can read {id, premise, hypothesis} lines on stdin and
answer {id, entailment} lines on stdout can serve as a scorer, whatever
language or framework it runs on. One that also answers a per-mention line
(the premise, the template's head and tail, and every label surface) with
{id, entailments} ranks a whole mention in one round trip. The demo writes
a miniature endpoint to a temp directory, drives it through ExternalScorer,
and layers a persistent score cache over its per-mention ranking. It checks
its own claim: the first ranking writes one cache record for the mention,
holding a score per label, and the second is served from the cache without
a request crossing the process boundary. The demo exits nonzero if either
part does not hold.
"""

import sys
import tempfile
from pathlib import Path

from entail_typing import (
    CachedScorer,
    ExternalScorer,
    LabelVocabulary,
    MentionInstance,
    PairKind,
    PremiseHypothesisPair,
    ScoreCache,
    TemplateKind,
    rank_all_candidates,
    type_candidates,
)

# scores by counting shared words, the whole model in a few lines; it
# also logs each request line to the file named on its command line
ENDPOINT = '''\
import json, sys

def words(text):
    return set(text.lower().replace(".", " ").split())

def score(premise, hypothesis):
    return len(words(premise) & words(hypothesis)) / max(len(words(hypothesis)), 1)

with open(sys.argv[1], "a", encoding="utf-8") as log:
    for line in sys.stdin:
        log.write(line)
        log.flush()
        r = json.loads(line)
        if "surfaces" in r:  # one mention: every label's hypothesis at once
            reply = {"id": r["id"], "entailments": [
                score(r["premise"], r["head"] + s + r["tail"]) for s in r["surfaces"]]}
        else:
            reply = {"id": r["id"], "entailment": score(r["premise"], r["hypothesis"])}
        print(json.dumps(reply), flush=True)
'''

TEMPLATE = TemplateKind.TAXONOMIC
MENTION = MentionInstance(
    id="demo-000001",
    left_tokens=(),
    mention="Jay",
    right_tokens=tuple("the producer makes records .".split()),
    gold_labels=frozenset({"producer"}),
)
VOCAB = LabelVocabulary.from_raws(["city", "producer", "river", "record label"])


def pair(premise, hypothesis):
    return PremiseHypothesisPair(
        premise=premise,
        hypothesis=hypothesis,
        kind=PairKind.TYPE,
        instance_id="demo-000000",
        label_raw="demo",
        template=TEMPLATE,
    )


def line_count(path):
    return len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0


def main():
    with tempfile.TemporaryDirectory() as td:
        server = Path(td) / "endpoint.py"
        server.write_text(ENDPOINT, encoding="utf-8")
        requests = Path(td) / "requests.jsonl"
        command = [sys.executable, str(server), str(requests)]

        scorer = ExternalScorer(command)
        pairs = [
            pair("Jay the producer makes records .", "Jay is a producer ."),
            pair("Jay the producer makes records .", "Jay is a city ."),
            pair("the river rose .", "the river is wide ."),
        ]
        for p, score in zip(pairs, scorer.score_batch(pairs)):
            print(f"{score:.2f}  {p.hypothesis}")
        print()
        scorer.close()  # stops the endpoint process

        # the cache keeps one record per mention; only a missed mention reaches the endpoint
        cache_path = Path(td) / "scores.jsonl"
        cached = CachedScorer(ExternalScorer(command), ScoreCache(cache_path))
        rankings, written, sent = [], [], []
        try:
            for _ in range(2):
                records, lines = line_count(cache_path), line_count(requests)
                rankings.append(rank_all_candidates(MENTION, VOCAB, cached, TEMPLATE))
                written.append(line_count(cache_path) - records)
                sent.append(line_count(requests) - lines)
        finally:
            cached.close()  # closes the cache file and the endpoint behind it
        for scored in rankings[0]:
            print(f"{scored.score:.2f}  {scored.label.raw}")
        for name, records, trips in zip(("first", "second"), written, sent):
            print(f"{name} ranking: {records} cache records written, {trips} requests sent")

        renderable = len(type_candidates(MENTION, VOCAB.labels, TEMPLATE).surfaces)
        if (written != [1, 0] or len(cached.cache) != renderable or sent[1] != 0
                or rankings[1] != rankings[0]):
            sys.exit(f"error: expected 1 record of {renderable} scores, then none and no "
                     f"request, with the same ranking; got {written} records holding "
                     f"{len(cached.cache)} scores and {sent} requests")


if __name__ == "__main__":
    main()
