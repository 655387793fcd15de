"""Seeded, synthetic, UFET-shaped inputs for the benchmark workloads.

Everything is drawn from ``random.Random(seed)``, so one seed always gives
byte-identical files and another seed gives different ones. Labels and
context words are pseudo-words built from syllables: they are distinct by
construction, never collide with the template scaffold words, and carry no
meaning a scorer could exploit beyond the overlap the generator plants.

Two input families are written:

* ``ufet``: a flat vocabulary in three specificity tiers (by default the
  UFET sizes 9 / 121 / 10,201 = 10,331 labels, about a sixth of them
  multi-word), plus dev and test mentions with 1-5 gold labels and a
  context of varying length. Most gold label words, and a few words of
  non-gold labels, are planted in the context, so the overlap scorer finds
  most gold labels and some false positives.
* ``fine``: a two-level path vocabulary ("/coarse/fine", FIGER or
  OntoNotes scale, about 110 labels) with train, dev and test splits.
"""

import bisect
import itertools
import json
import random
from pathlib import Path

UFET_TIERS = {"general": 9, "fine": 121, "ultrafine": 10201}
FINE_SHAPE = (10, 10)  # coarse labels, fine children per coarse label

# Split sizes (mentions) for each size preset; "tiny" exists for smoke tests.
SIZES = {
    "full": {
        "tiers": UFET_TIERS,
        "ufet_dev": 15,
        "ufet_test": 165,
        "fine_shape": FINE_SHAPE,
        "fine_train": 300,
        "fine_dev": 100,
        "fine_test": 100,
    },
    "tiny": {
        "tiers": {"general": 3, "fine": 10, "ultrafine": 60},
        "ufet_dev": 9,
        "ufet_test": 22,
        "fine_shape": (3, 4),
        "fine_train": 12,
        "fine_dev": 6,
        "fine_test": 12,
    },
}

# Mentions a job takes at a time (see worker.py). Each block of a split
# spans the whole context-length range, so every job costs about the same.
# Blocks are odd-sized, so the median mention of a run is always one of
# middle length rather than a mean across the gap between two lengths.
BLOCKS = {"ufet_dev": 3, "ufet_test": 11}

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "gl", "kr", "pl", "st", "tr", "sk"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ou"]
_CODAS = ["", "", "", "n", "r", "s", "l", "k"]
_PUNCT = [",", ".", ";", "(", ")", "'s"]


class WordPool:
    """Distinct pseudo-words; a word is handed out at most once."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def take(self) -> str:
        while True:
            syllables = self.rng.choice((2, 2, 3, 3, 4))
            word = "".join(
                self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS) + self.rng.choice(_CODAS)
                for _ in range(syllables)
            )
            if word not in self.used:
                self.used.add(word)
                return word


def _flat_labels(rng: random.Random, pool: WordPool, tiers: dict[str, int]):
    """Tiered flat labels; multi-word ones join words with underscores."""
    heads: list[str] = []
    by_tier: dict[str, list[str]] = {}
    taken: set[str] = set()
    for tier, count in tiers.items():
        labels = by_tier.setdefault(tier, [])
        while len(labels) < count:
            n_words = rng.choices((1, 2, 3), weights=(83, 14, 3))[0]
            words = [pool.take() for _ in range(n_words)]
            if n_words > 1 and heads and rng.random() < 0.5:
                # Reusing a one-word label as head gives partial overlaps, as
                # "player" does for "football_player" in the real vocabulary.
                words[-1] = rng.choice(heads)
            raw = "_".join(words)
            if raw in taken:
                continue
            taken.add(raw)
            labels.append(raw)
            if n_words == 1:
                heads.append(raw)
    return by_tier


def _zipf_cum(n: int) -> list[float]:
    """Cumulative Zipf(1) weights: a few ultra-fine labels are frequent."""
    total = 0.0
    cum = []
    for rank in range(1, n + 1):
        total += 1.0 / rank
        cum.append(total)
    return cum


def _draw(rng: random.Random, items: list[str], cum: list[float]) -> str:
    return items[bisect.bisect_left(cum, rng.random() * cum[-1])]


# Context lengths (words) are spread evenly over this range within each
# block, so cost varies from mention to mention but hardly from one job or
# seed to the next.
MIN_CONTEXT, MAX_CONTEXT = 2, 48


def _lengths(rng: random.Random, count: int, block: int, shuffle: bool) -> list[int]:
    span = MAX_CONTEXT - MIN_CONTEXT
    lengths = []
    for start in range(0, count, block):
        size = min(block, count - start)
        part = [MIN_CONTEXT + round(span * (i + 0.5) / size) for i in range(size)]
        if shuffle:
            rng.shuffle(part)
        lengths += part
    return lengths


def _context(rng, pool_words, planted, length):
    """Left and right token lists: ``length`` words, planted ones included, and punctuation.

    Planted words take the place of filler words, so a context's length,
    which drives most of a mention's cost, does not depend on the seed.
    """
    tokens = [rng.choice(pool_words) for _ in range(max(length - len(planted), 0))]
    for _ in range(length // 7):
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(_PUNCT))
    for word in planted:
        tokens.insert(rng.randint(0, len(tokens)), word)
    cut = rng.randint(0, len(tokens))
    return tokens[:cut], tokens[cut:]


def _mention(rng, names):
    n_words = rng.choices((1, 2, 3), weights=(55, 35, 10))[0]
    return " ".join(rng.choice(names) for _ in range(n_words))


def _record(left, mention, right, gold):
    return {
        "left_context_token": left,
        "mention_span": mention,
        "right_context_token": right,
        "y_str": gold,
    }


def _ufet_mentions(rng, count, block, by_tier, cums, filler, names):
    general, fine, ultra = by_tier["general"], by_tier["fine"], by_tier["ultrafine"]
    records = []
    # Short to long within each block, so a mention of each length meets a
    # cache of the same size in every job and on every seed.
    for length in _lengths(rng, count, block, shuffle=False):
        gold = set()
        if rng.random() < 0.9:
            gold.add(rng.choice(general))
        for _ in range(rng.choice((0, 1, 1, 2))):
            gold.add(rng.choice(fine))
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            gold.add(_draw(rng, ultra, cums))
        if not gold:
            gold.add(_draw(rng, ultra, cums))
        gold = sorted(gold)[:5]
        planted = []
        for label in gold:
            if rng.random() < 0.85:
                planted.extend(label.split("_"))
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            distractor = _draw(rng, ultra, cums)
            if distractor not in gold:
                planted.extend(distractor.split("_"))
        rng.shuffle(planted)
        mention = _mention(rng, names)
        left, right = _context(rng, filler, planted, length)
        records.append(_record(left, mention, right, gold))
    return records


def _fine_mentions(rng, count, tree, filler, names):
    coarse = sorted(tree)
    records = []
    for length in _lengths(rng, count, count, shuffle=True):
        gold = set()
        for parent in rng.sample(coarse, rng.choice((1, 1, 2))):
            gold.add(parent)
            for child in rng.sample(tree[parent], rng.choice((0, 1, 1, 2))):
                gold.add(child)
        gold = sorted(gold)
        planted = [label.rsplit("/", 1)[-1] for label in gold if rng.random() < 0.7]
        mention = _mention(rng, names)
        left, right = _context(rng, filler, planted, length)
        records.append(_record(left, mention, right, gold))
    return records


def _write_jsonl(path: Path, records) -> None:
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )


def generate(out_dir: str | Path, seed: int, size: str = "full") -> dict:
    """Write every workload's inputs under ``out_dir``; return their paths."""
    spec = SIZES[size]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    pool = WordPool(rng)

    by_tier = _flat_labels(rng, pool, spec["tiers"])
    filler = [pool.take() for _ in range(3000)]
    names = [pool.take().capitalize() for _ in range(800)]
    cums = _zipf_cum(len(by_tier["ultrafine"]))
    vocab = list(itertools.chain.from_iterable(by_tier[t] for t in spec["tiers"]))
    rng.shuffle(vocab)
    (out / "ufet_vocab.txt").write_text("\n".join(vocab) + "\n", encoding="utf-8")
    (out / "ufet_tiers.tsv").write_text(
        "".join(f"{raw}\t{tier}\n" for tier in spec["tiers"] for raw in by_tier[tier]),
        encoding="utf-8",
    )
    for split in ("dev", "test"):
        stem = f"ufet_{split}"
        records = _ufet_mentions(rng, spec[stem], BLOCKS[stem], by_tier, cums, filler, names)
        _write_jsonl(out / f"ufet_{split}.jsonl", records)

    n_coarse, n_children = spec["fine_shape"]
    tree = {}
    for _ in range(n_coarse):
        parent = "/" + pool.take()
        tree[parent] = [f"{parent}/{pool.take()}" for _ in range(n_children)]
    fine_vocab = sorted(tree) + sorted(itertools.chain.from_iterable(tree.values()))
    (out / "fine_vocab.txt").write_text("\n".join(fine_vocab) + "\n", encoding="utf-8")
    for split in ("train", "dev", "test"):
        records = _fine_mentions(rng, spec[f"fine_{split}"], tree, filler, names)
        _write_jsonl(out / f"fine_{split}.jsonl", records)

    return {p.stem: str(p) for p in sorted(out.iterdir())}
