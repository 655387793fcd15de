"""Entailment scorers: the contract plus desk-scale and external backends.

A scorer maps a (premise, hypothesis) pair to a number in [0, 1], read as
the confidence that the premise entails the hypothesis (the probability
mass a 3-way NLI head puts on its entailment class, for real models).
Everything downstream (training, ranking, thresholding) depends only on
this contract, so real pretrained models stay behind a process boundary
and tests run against deterministic stand-ins.
"""

import abc
import copy
import json
import os
import shlex
import string
import subprocess
from pathlib import Path
from typing import Sequence

from ._util import fnv1a_64
from .errors import CacheError, ConfigError, ProtocolError, TransportError, ValidationError
from .templates import PremiseHypothesisPair

# Fixed template words that carry no type information; ignored when the
# overlap scorer compares hypothesis tokens against the premise.
SCAFFOLD_TOKENS = frozenset({"is", "a", "in", "this", "context", "referring", "to", "."})


class EntailmentScorer(abc.ABC):
    """Contract: deterministic pairwise scoring into the unit interval."""

    @property
    def version_tag(self) -> str:
        """Identity of the current parameter state; fixed scorers never change."""
        return "v0"

    @abc.abstractmethod
    def score(self, pair: PremiseHypothesisPair) -> float:
        raise NotImplementedError

    def score_batch(self, pairs: Sequence[PremiseHypothesisPair]) -> list[float]:
        """Order-preserving batch scoring; semantically identical to a score loop."""
        return [self.score(p) for p in pairs]

    def close(self) -> None:
        """Release held resources (processes, files); in-process scorers hold none."""


class TrainableScorer(EntailmentScorer):
    """A scorer whose parameters move under a margin ranking objective.

    ``accumulate_ranking_loss`` records gradient bookkeeping for one
    positive pair against its sampled negatives; ``apply_update`` folds all
    accumulated bookkeeping into the parameters as one step. ``weight``
    scales the example's contribution inside a batch (used for per-instance
    normalization and the dependency-term weight).
    """

    @abc.abstractmethod
    def accumulate_ranking_loss(
        self,
        pos_pair: PremiseHypothesisPair,
        neg_pairs: Sequence[PremiseHypothesisPair],
        margin: float,
        weight: float = 1.0,
    ) -> float:
        raise NotImplementedError

    @abc.abstractmethod
    def apply_update(self) -> None:
        raise NotImplementedError

    @abc.abstractmethod
    def snapshot(self) -> str:
        raise NotImplementedError

    @abc.abstractmethod
    def restore(self, tag: str) -> None:
        raise NotImplementedError


def _content_tokens(text: str) -> set[str]:
    """Lowercased whitespace tokens with edge punctuation stripped."""
    tokens = set()
    for tok in text.lower().split():
        tok = tok.strip(string.punctuation)
        if tok:
            tokens.add(tok)
    return tokens


def _overlap_ratio(hypothesis: str, premise_tokens: set[str]) -> float:
    hyp_tokens = _content_tokens(hypothesis) - SCAFFOLD_TOKENS
    if not hyp_tokens:
        return 0.0
    return len(hyp_tokens & premise_tokens) / len(hyp_tokens)


def overlap_score(pair: PremiseHypothesisPair) -> float:
    """Fraction of the hypothesis's content tokens present in the premise.

    Scaffold tokens are dropped from the hypothesis side first, so the
    ratio reflects the mention and label words only. An empty effective
    hypothesis set scores 0.
    """
    return _overlap_ratio(pair.hypothesis, _content_tokens(pair.premise))


class OverlapScorer(EntailmentScorer):
    """Lexical-overlap stand-in for an NLI model; deterministic, model-free.

    Scores any label whose surface words appear in the premise, whether or
    not the label was ever seen in training, which is what makes it a
    usable zero-shot toy scorer.
    """

    def score(self, pair: PremiseHypothesisPair) -> float:
        return overlap_score(pair)

    def score_batch(self, pairs: Sequence[PremiseHypothesisPair]) -> list[float]:
        """``overlap_score`` per pair, tokenizing each distinct premise once."""
        premise_tokens: dict[str, set[str]] = {}
        scores = []
        for pair in pairs:
            tokens = premise_tokens.get(pair.premise)
            if tokens is None:
                tokens = premise_tokens[pair.premise] = _content_tokens(pair.premise)
            scores.append(_overlap_ratio(pair.hypothesis, tokens))
        return scores


class TableScorer(EntailmentScorer):
    """Lookup scorer over an explicit (premise, hypothesis) -> score table.

    Unknown pairs fall back to ``default``. Lookup never fails, so fixtures
    stay small: only the pairs a test cares about need entries.
    """

    def __init__(
        self,
        table: dict[tuple[str, str], float],
        default: float = 0.0,
    ):
        for (premise, hypothesis), value in table.items():
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"table score {value} outside [0, 1] for hypothesis {hypothesis!r}"
                )
        if not 0.0 <= default <= 1.0:
            raise ValidationError(f"table default {default} outside [0, 1]")
        self._table = dict(table)
        self.default = default

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "TableScorer":
        """Load a table from JSONL records {premise, hypothesis, score}.

        A record {"default": x} (no premise key) sets the fallback score.
        """
        table: dict[tuple[str, str], float] = {}
        default = 0.0
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValidationError(f"{path}:{lineno}: invalid JSON: {exc}") from None
                if "premise" not in record and "default" in record:
                    default = float(record["default"])
                    continue
                for key in ("premise", "hypothesis", "score"):
                    if key not in record:
                        raise ValidationError(f"{path}:{lineno}: missing key {key!r}")
                table[(record["premise"], record["hypothesis"])] = float(record["score"])
        return cls(table, default)

    def score(self, pair: PremiseHypothesisPair) -> float:
        return self._table.get((pair.premise, pair.hypothesis), self.default)


class TrainableTableScorer(TrainableScorer):
    """Table scorer with additive margin updates; a deterministic trainer stub.

    When a positive fails to beat a negative by the margin, the pending
    step moves the positive's entry up and the negative's down by
    ``lr * weight``. ``apply_update`` applies all pending steps, clips to
    [0, 1], and bumps the version tag. Snapshots deep-copy the table so
    ``restore`` is bit-stable.
    """

    def __init__(
        self,
        table: dict[tuple[str, str], float] | None = None,
        default: float = 0.5,
        lr: float = 0.1,
    ):
        if not 0.0 <= default <= 1.0:
            raise ValidationError(f"table default {default} outside [0, 1]")
        self._table: dict[tuple[str, str], float] = dict(table or {})
        self.default = default
        self.lr = lr
        self._pending: dict[tuple[str, str], float] = {}
        self._version = 0
        self._snapshots: dict[str, tuple[int, dict[tuple[str, str], float]]] = {}

    @property
    def version_tag(self) -> str:
        return f"v{self._version}"

    def _key(self, pair: PremiseHypothesisPair) -> tuple[str, str]:
        return (pair.premise, pair.hypothesis)

    def score(self, pair: PremiseHypothesisPair) -> float:
        return self._table.get(self._key(pair), self.default)

    def accumulate_ranking_loss(
        self,
        pos_pair: PremiseHypothesisPair,
        neg_pairs: Sequence[PremiseHypothesisPair],
        margin: float,
        weight: float = 1.0,
    ) -> float:
        pos_score = self.score(pos_pair)
        total = 0.0
        for neg in neg_pairs:
            violation = self.score(neg) - pos_score + margin
            if violation > 0.0:
                total += violation
                step = self.lr * weight
                pos_key, neg_key = self._key(pos_pair), self._key(neg)
                self._pending[pos_key] = self._pending.get(pos_key, 0.0) + step
                self._pending[neg_key] = self._pending.get(neg_key, 0.0) - step
        return total / len(neg_pairs) if neg_pairs else 0.0

    def apply_update(self) -> None:
        for key, delta in self._pending.items():
            base = self._table.get(key, self.default)
            self._table[key] = min(1.0, max(0.0, base + delta))
        self._pending.clear()
        self._version += 1

    def snapshot(self) -> str:
        tag = f"ckpt-{len(self._snapshots):04d}"
        self._snapshots[tag] = (self._version, copy.deepcopy(self._table))
        return tag

    def restore(self, tag: str) -> None:
        if tag not in self._snapshots:
            raise ValidationError(f"unknown checkpoint tag {tag!r}")
        version, table = self._snapshots[tag]
        self._version = version
        self._table = copy.deepcopy(table)
        self._pending.clear()


class ExternalEndpoint:
    """A scorer process spoken to over stdin/stdout in UTF-8 JSONL.

    Score requests are {id, premise, hypothesis}; the endpoint answers one
    {id, entailment} line per request, in order, preserving ids. Control
    requests (training only) carry an "op" key instead of an id.
    """

    # Seconds a closing endpoint gets to exit on its own before it is killed.
    CLOSE_WAIT_S = 10.0

    def __init__(self, command: Sequence[str]):
        if not command:
            raise ConfigError("external scorer command is empty")
        self.command = tuple(command)
        self._proc: subprocess.Popen | None = None

    def _ensure_started(self) -> subprocess.Popen:
        if self._proc is not None and self._proc.poll() is not None:
            self.close()
        if self._proc is None:
            try:
                self._proc = subprocess.Popen(
                    self.command,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                    encoding="utf-8",
                )
            except OSError as exc:
                raise TransportError(
                    f"cannot start scorer endpoint {self.command[0]!r}: {exc}"
                ) from None
        return self._proc

    def round_trip(self, requests: list[dict]) -> list[dict]:
        """Send request lines, read exactly one response line per request."""
        proc = self._ensure_started()
        assert proc.stdin is not None and proc.stdout is not None
        try:
            for request in requests:
                proc.stdin.write(json.dumps(request, ensure_ascii=False) + "\n")
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise TransportError(f"scorer endpoint not reachable for writes: {exc}") from None
        responses = []
        for i in range(len(requests)):
            line = proc.stdout.readline()
            if not line:
                raise ProtocolError(
                    f"response length mismatch: endpoint closed after "
                    f"{i} of {len(requests)} responses"
                )
            try:
                responses.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ProtocolError(f"invalid JSON from endpoint: {exc}") from None
        return responses

    def close(self) -> None:
        """Close both pipes and reap the process, whether or not it already exited.

        Closing stdin asks a live endpoint to exit; one still running after
        ``CLOSE_WAIT_S`` is killed.
        """
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            if proc.stdin is not None:
                try:
                    proc.stdin.close()
                except OSError:
                    pass  # an exited endpoint cannot take the unsent bytes
            try:
                proc.wait(timeout=self.CLOSE_WAIT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        finally:
            if proc.stdout is not None:
                proc.stdout.close()


def external_score_batch(
    pairs: Sequence[PremiseHypothesisPair], endpoint: ExternalEndpoint
) -> list[float]:
    """Score pairs through an endpoint, enforcing the wire contract.

    Violations surface as errors rather than bad numbers: a dropped or
    extra response line, a shuffled id, or a score outside [0, 1] each
    raise.
    """
    if not pairs:
        return []
    requests = [
        {"id": f"q{i:06d}", "premise": p.premise, "hypothesis": p.hypothesis}
        for i, p in enumerate(pairs)
    ]
    responses = endpoint.round_trip(requests)
    scores = []
    for request, response in zip(requests, responses):
        if response.get("id") != request["id"]:
            raise ProtocolError(
                f"id mismatch: sent {request['id']!r}, got {response.get('id')!r}"
            )
        if "entailment" not in response:
            raise ProtocolError(f"response for {request['id']!r} lacks an entailment score")
        value = response["entailment"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProtocolError(f"non-numeric entailment score {value!r}")
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ProtocolError(f"entailment score {value} outside [0, 1]")
        scores.append(value)
    return scores


class ExternalScorer(EntailmentScorer):
    """EntailmentScorer backed by an external process endpoint."""

    def __init__(self, command: Sequence[str]):
        self.endpoint = ExternalEndpoint(command)
        self._version = 0

    @property
    def version_tag(self) -> str:
        return f"v{self._version}"

    def score(self, pair: PremiseHypothesisPair) -> float:
        return self.score_batch([pair])[0]

    def score_batch(self, pairs: Sequence[PremiseHypothesisPair]) -> list[float]:
        return external_score_batch(pairs, self.endpoint)

    def close(self) -> None:
        self.endpoint.close()


class ExternalTrainableScorer(ExternalScorer, TrainableScorer):
    """Trainable scorer behind the process boundary.

    Extends the wire protocol with control ops the endpoint must implement:
    {"op": "accumulate", margin, weight, positive, negatives} -> {"loss": x},
    {"op": "update"} -> {"ok": true}, {"op": "snapshot"} -> {"tag": t}, and
    {"op": "restore", "tag": t} -> {"ok": true}. Plain score requests are
    unchanged.
    """

    def _control(self, request: dict) -> dict:
        return self.endpoint.round_trip([request])[0]

    def accumulate_ranking_loss(
        self,
        pos_pair: PremiseHypothesisPair,
        neg_pairs: Sequence[PremiseHypothesisPair],
        margin: float,
        weight: float = 1.0,
    ) -> float:
        response = self._control(
            {
                "op": "accumulate",
                "margin": margin,
                "weight": weight,
                "positive": {"premise": pos_pair.premise, "hypothesis": pos_pair.hypothesis},
                "negatives": [
                    {"premise": n.premise, "hypothesis": n.hypothesis} for n in neg_pairs
                ],
            }
        )
        if "loss" not in response:
            raise ProtocolError("accumulate response lacks a loss value")
        return float(response["loss"])

    def apply_update(self) -> None:
        self._control({"op": "update"})
        self._version += 1

    def snapshot(self) -> str:
        response = self._control({"op": "snapshot"})
        if "tag" not in response:
            raise ProtocolError("snapshot response lacks a tag")
        return str(response["tag"])

    def restore(self, tag: str) -> None:
        self._control({"op": "restore", "tag": tag})


CacheKey = tuple[str, int, int]


class ScoreCache:
    """Append-only persistent cache of pair scores, keyed by scorer version.

    Records are JSONL {"v": version_tag, "p": h64, "h": h64, "s": score}
    with h64 the FNV-1a 64-bit hash of the exact premise or hypothesis
    text, so the file stays portable across implementations without storing
    full sentences. Entries written under an older version tag are simply
    never hit once the scorer updates.

    ``insert`` appends a batch's new records with one flush, so a crash
    loses at most the batch in flight and may leave a torn final line. On
    load an unparseable final line without a newline is cut off the file;
    any other bad line raises ``CacheError`` naming ``path:line``.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[CacheKey, float] = {}
        last_line = self._load() if self.path.exists() else b""
        self._handle = open(self.path, "a", encoding="utf-8")
        if last_line and not last_line.endswith(b"\n"):
            self._handle.write("\n")
            self._handle.flush()

    def _load(self) -> bytes:
        """Read every record, cutting off a torn tail; return the last line kept."""
        offset, last_line, torn = 0, b"", False
        with open(self.path, "rb") as f:
            for lineno, raw in enumerate(f, start=1):
                if raw.strip():
                    try:
                        record = json.loads(raw)
                    except ValueError as exc:
                        if not raw.endswith(b"\n"):
                            torn = True  # an append cut short by a crash
                            break
                        raise CacheError(f"{self.path}:{lineno}: invalid JSON: {exc}") from None
                    try:
                        key = (str(record["v"]), int(record["p"]), int(record["h"]))
                        self._entries[key] = float(record["s"])
                    except (KeyError, TypeError, ValueError) as exc:
                        raise CacheError(
                            f"{self.path}:{lineno}: bad cache record: {exc!r}"
                        ) from None
                offset += len(raw)
                last_line = raw
        if torn:
            os.truncate(self.path, offset)
        return last_line

    def lookup(
        self, version_tag: str, pairs: Sequence[PremiseHypothesisPair]
    ) -> tuple[list[CacheKey], list[float | None]]:
        """Key every pair, hashing each distinct premise once; return keys and hits."""
        premise_hashes: dict[str, int] = {}
        keys = []
        for pair in pairs:
            premise_hash = premise_hashes.get(pair.premise)
            if premise_hash is None:
                premise_hash = premise_hashes[pair.premise] = fnv1a_64(pair.premise)
            keys.append((version_tag, premise_hash, fnv1a_64(pair.hypothesis)))
        return keys, [self._entries.get(key) for key in keys]

    def insert(self, keys: Sequence[CacheKey], scores: Sequence[float]) -> None:
        """Record the keys not yet cached, appending their lines with one flush."""
        lines = []
        for key, score in zip(keys, scores):
            if key in self._entries:
                continue
            self._entries[key] = score
            record = {"v": key[0], "p": key[1], "h": key[2], "s": score}
            lines.append(json.dumps(record, ensure_ascii=False) + "\n")
        if lines:
            self._handle.write("".join(lines))
            self._handle.flush()

    def _key(self, version_tag: str, premise: str, hypothesis: str) -> CacheKey:
        return (version_tag, fnv1a_64(premise), fnv1a_64(hypothesis))

    def get(self, version_tag: str, premise: str, hypothesis: str) -> float | None:
        return self._entries.get(self._key(version_tag, premise, hypothesis))

    def put(self, version_tag: str, premise: str, hypothesis: str, score: float) -> None:
        self.insert([self._key(version_tag, premise, hypothesis)], [score])

    def __len__(self) -> int:
        return len(self._entries)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "ScoreCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CachedScorer(EntailmentScorer):
    """Wrap any scorer with a ScoreCache; misses are scored then recorded."""

    def __init__(self, inner: EntailmentScorer, cache: ScoreCache):
        self.inner = inner
        self.cache = cache

    @property
    def version_tag(self) -> str:
        return self.inner.version_tag

    def score(self, pair: PremiseHypothesisPair) -> float:
        return self.score_batch([pair])[0]

    def score_batch(self, pairs: Sequence[PremiseHypothesisPair]) -> list[float]:
        keys, scores = self.cache.lookup(self.inner.version_tag, pairs)
        misses = [i for i, hit in enumerate(scores) if hit is None]
        if misses:
            fresh = self.inner.score_batch([pairs[i] for i in misses])
            for i, value in zip(misses, fresh):
                scores[i] = value
            self.cache.insert([keys[i] for i in misses], fresh)
        return scores

    def close(self) -> None:
        """Close the cache file and the wrapped scorer."""
        self.cache.close()
        self.inner.close()


def scorer_from_spec(spec: str, base_dir: str | Path | None = None) -> EntailmentScorer:
    """Build a scorer from its config string.

    Recognized forms: "overlap", "table:<path>", "trainable-table:<path>"
    (path optional; omit for an empty table at the default score),
    "external:<command>" and "external-trainable:<command>" with the
    command split shell-style. Relative paths resolve against ``base_dir``.
    """

    def resolve(path_text: str) -> Path:
        path = Path(path_text)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        return path

    if spec == "overlap":
        return OverlapScorer()
    if spec.startswith("table:"):
        return TableScorer.from_jsonl(resolve(spec[len("table:"):]))
    if spec == "trainable-table":
        return TrainableTableScorer()
    if spec.startswith("trainable-table:"):
        fixed = TableScorer.from_jsonl(resolve(spec[len("trainable-table:"):]))
        return TrainableTableScorer(fixed._table, default=fixed.default)
    if spec.startswith("external-trainable:"):
        return ExternalTrainableScorer(shlex.split(spec[len("external-trainable:"):]))
    if spec.startswith("external:"):
        return ExternalScorer(shlex.split(spec[len("external:"):]))
    raise ConfigError(f"unknown scorer spec {spec!r}")
