"""Output checks against the brute-force oracles in ``tests/oracles.py``.

Each check returns a list of problems; an empty list means the output
agrees with the reference. The hypothesis text is rebuilt here from the
instance fields rather than taken from the package, so a rendering bug
cannot hide itself.
"""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

TEMPLATES = {
    "taxonomic": "{mention} is a {surface}.",
    "contextual": "In this context, {mention} is referring to {surface}.",
}


def load_oracles(root: Path):
    """Import ``tests/oracles.py`` by path, without touching ``sys.path``."""
    path = Path(root) / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def premise_text(instance) -> str:
    parts = [" ".join(instance.left_tokens), instance.mention, " ".join(instance.right_tokens)]
    return " ".join(p for p in parts if p)


def hypothesis_text(template: str, mention: str, raw_label: str) -> str:
    last = raw_label.rstrip("/").rsplit("/", 1)[-1] if raw_label.startswith("/") else raw_label
    return TEMPLATES[template].format(mention=mention, surface=last.replace("_", " "))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_ranking(oracles, scores: dict, top: list, chosen, threshold: float) -> list[str]:
    """Top-k order and chosen set of one mention against the oracles."""
    problems = []
    expected_top = oracles.oracle_rank(scores)[: len(top)]
    if list(top) != expected_top:
        problems.append(f"top-k order {top[:3]}... differs from oracle {expected_top[:3]}...")
    expected = oracles.oracle_predict(scores, threshold)
    if set(chosen) != expected:
        problems.append(f"chosen set of {len(chosen)} differs from oracle's {len(expected)}")
    return problems


def check_overlap_scores(oracles, instance, scores: dict, template: str) -> list[str]:
    """Every label's overlap score against ``oracle_overlap``."""
    premise = premise_text(instance)
    bad = [
        raw
        for raw, value in scores.items()
        if not _close(value, oracles.oracle_overlap(premise, hypothesis_text(template, instance.mention, raw)))
    ]
    return [f"{len(bad)} overlap scores differ from oracle, e.g. {bad[0]!r}"] if bad else []


def stub_base_score(premise: str, hypothesis: str) -> float:
    """The external stub's score for a pair it was never trained on."""
    digest = hashlib.sha256((premise + "\x1f" + hypothesis).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def check_stub_scores(instance, scores: dict, template: str) -> list[str]:
    """Scores returned through the process boundary, in the order sent."""
    premise = premise_text(instance)
    bad = [
        raw
        for raw, value in scores.items()
        if not _close(value, stub_base_score(premise, hypothesis_text(template, instance.mention, raw)))
    ]
    return [f"{len(bad)} endpoint scores differ from the stub formula, e.g. {bad[0]!r}"] if bad else []


def check_report(oracles, report, chosen_sets: list, gold_sets: list) -> list[str]:
    """Loose macro, micro and strict accuracy against the oracles."""
    problems = []
    for name, got, expected in (
        ("loose_macro", report.loose_macro, oracles.oracle_macro(chosen_sets, gold_sets)),
        ("micro", report.micro, oracles.oracle_micro(chosen_sets, gold_sets)),
        ("strict", (report.strict_accuracy,), (oracles.oracle_strict(chosen_sets, gold_sets),)),
    ):
        if not all(_close(a, b) for a, b in zip(got, expected)):
            problems.append(f"{name} {got} differs from oracle {expected}")
    return problems


def check_tune(oracles, threshold: float, score_maps: list, gold_sets: list, grid) -> list[str]:
    expected = oracles.oracle_tune(score_maps, gold_sets, list(grid))
    if threshold != expected:
        return [f"tuned threshold {threshold} differs from oracle {expected}"]
    return []


def check_same_scores(cold: dict, warm: dict) -> list[str]:
    if cold != warm:
        differing = sum(1 for k in cold if warm.get(k) != cold[k])
        return [f"warm-cache scores differ from the cold pass on {differing} labels"]
    return []


def digest(obj) -> str:
    """Stable hash of a JSON-ready value, for comparing two runs' outputs."""
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
