"""Score pairs through a child process speaking the JSONL wire protocol.

Any model that can read {id, premise, hypothesis} lines on stdin and
answer {id, entailment} lines on stdout can serve as a scorer, whatever
language or framework it runs on. The demo writes a miniature endpoint
to a temp directory, drives it through ExternalScorer, and layers a
persistent score cache on top so repeated pairs never cross the process
boundary twice.
"""

import sys
import tempfile
from pathlib import Path

from entail_typing import (
    CachedScorer,
    ExternalScorer,
    PairKind,
    PremiseHypothesisPair,
    ScoreCache,
)

# scores by counting shared words, the whole model in a dozen lines
ENDPOINT = '''\
import json, sys

for line in sys.stdin:
    request = json.loads(line)
    premise = set(request["premise"].lower().split())
    hypothesis = set(request["hypothesis"].lower().split())
    score = len(premise & hypothesis) / max(len(hypothesis), 1)
    print(json.dumps({"id": request["id"], "entailment": score}), flush=True)
'''


def pair(premise, hypothesis):
    return PremiseHypothesisPair(
        premise=premise,
        hypothesis=hypothesis,
        kind=PairKind.TYPE,
        instance_id="demo-000000",
        label_raw="demo",
        template="taxonomic",
    )


def main():
    with tempfile.TemporaryDirectory() as td:
        server = Path(td) / "endpoint.py"
        server.write_text(ENDPOINT, encoding="utf-8")

        scorer = ExternalScorer([sys.executable, str(server)])
        pairs = [
            pair("Jay the producer makes records .", "Jay is a producer ."),
            pair("Jay the producer makes records .", "Jay is a city ."),
            pair("the river rose .", "the river is wide ."),
        ]
        for p, score in zip(pairs, scorer.score_batch(pairs)):
            print(f"{score:.2f}  {p.hypothesis}")
        print()
        scorer.close()  # stops the endpoint process

        cache = ScoreCache(Path(td) / "scores.jsonl")
        cached = CachedScorer(ExternalScorer([sys.executable, str(server)]), cache)
        cached.score_batch(pairs)
        hits_before = len(list(Path(td, "scores.jsonl").read_text().splitlines()))
        cached.score_batch(pairs)
        hits_after = len(list(Path(td, "scores.jsonl").read_text().splitlines()))
        print(f"cache entries after first batch:  {hits_before}")
        print(f"cache entries after second batch: {hits_after} (all hits, nothing new)")
        cached.close()  # closes the cache file and the endpoint behind it


if __name__ == "__main__":
    main()
