"""Entailment scorers: the contract plus desk-scale and external backends.

A scorer maps a (premise, hypothesis) pair to a number in [0, 1], read as
the confidence that the premise entails the hypothesis (the probability
mass a 3-way NLI head puts on its entailment class, for real models).
Everything downstream (training, ranking, thresholding) depends only on
this contract, so real pretrained models stay behind a process boundary
and tests run against deterministic stand-ins.

A scorer implements ``score``. Ranking scores one mention's premise
against every label's hypothesis through ``score_candidates``, which by
default builds the pairs and calls ``score_batch``; a scorer that can reuse
the shared premise and template frame across labels overrides it, as
:class:`OverlapScorer` and :class:`TableScorer` do and
:class:`ExternalScorer` does with one request line per mention.
:class:`CachedScorer` caches only that call, one record per mention: a
mention is served whole from the cache, or scored whole by the wrapped
scorer's ``score_candidates``.
"""

import abc
import array
import hashlib
import json
import math
import os
import re
import shlex
import string
import subprocess
from pathlib import Path
from typing import Callable, Sequence

from ._util import has_lone_surrogate, json_number, numbered_jsonl
from .errors import CacheError, ConfigError, ProtocolError, TransportError, ValidationError
from .templates import PremiseHypothesisPair, TypeCandidates

# Fixed template words that carry no type information; ignored when the
# overlap scorer compares hypothesis tokens against the premise.
SCAFFOLD_TOKENS = frozenset({"is", "a", "in", "this", "context", "referring", "to", "."})


class EntailmentScorer(abc.ABC):
    """Contract: deterministic pairwise scoring into the unit interval."""

    @property
    def identity(self) -> str:
        """Names the scorer in score-cache keys: its kind, and what fixes its scores."""
        return f"{type(self).__module__}.{type(self).__qualname__}"

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

    def score_candidates(self, candidates: TypeCandidates) -> list[float]:
        """Score one mention's type hypotheses: one score per ``candidates.pairs()``."""
        return self.score_batch(candidates.pairs())

    def close(self) -> None:
        """Release held resources (processes, files); in-process scorers hold none."""


def unit_score(value) -> float:
    """A score as a float: an int or float (not a bool) in [0, 1]; else ``ValueError``."""
    if type(value) is not float:
        value = json_number(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"score {value} outside [0, 1]")
    return value


def check_scores(scores, expected: int, label_raw: Callable[[int], str]) -> list[float]:
    """``expected`` scores as a fresh list of floats, each passing :func:`unit_score`.

    Otherwise raises :class:`ValidationError`; ``label_raw(i)`` names the
    label of score ``i``, and the first bad one is named.
    """
    scores = list(scores)
    if len(scores) != expected:
        raise ValidationError(f"scorer returned {len(scores)} scores for {expected} pairs")
    if not [s for s in scores if type(s) is not float or not 0.0 <= s <= 1.0]:
        return scores  # the common case: in-range floats, checked in one pass
    for i, value in enumerate(scores):
        try:
            scores[i] = unit_score(value)
        except ValueError as exc:
            raise ValidationError(f"{exc} for label {label_raw(i)!r}") from None
    return scores


def margin_ranking_loss(pos_score: float, neg_score: float, margin: float) -> float:
    """Hinge penalty when the positive fails to beat the negative by the margin."""
    return max(neg_score - pos_score + margin, 0.0)


class TrainableScorer(EntailmentScorer):
    """A scorer whose parameters move under a margin ranking objective.

    ``accumulate_ranking_loss`` records gradient bookkeeping for one
    positive pair against its sampled negatives; ``apply_update`` folds all
    accumulated bookkeeping into the parameters as one step. ``weight``
    scales the example's contribution inside a batch (used for per-instance
    normalization and the dependency-term weight).

    ``version_tag`` is ``v<n>``, n counting every ``apply_update`` and every
    successful ``restore``: no tag names two parameter states, so a cache
    re-scores a restored state rather than serve another state's scores.
    """

    _changes = 0  # implementations add one per update and per restore

    @property
    def version_tag(self) -> str:
        return f"v{self._changes}"

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


def overlap_score(pair: PremiseHypothesisPair) -> float:
    """Fraction of the hypothesis's content tokens present in the premise.

    Scaffold tokens are dropped from the hypothesis side first, so the
    ratio reflects the mention and label words only. An empty effective
    hypothesis set scores 0.
    """
    hyp_tokens = _content_tokens(pair.hypothesis) - SCAFFOLD_TOKENS
    if not hyp_tokens:
        return 0.0
    return len(hyp_tokens & _content_tokens(pair.premise)) / len(hyp_tokens)


class OverlapScorer(EntailmentScorer):
    """Lexical-overlap stand-in for an NLI model; deterministic, model-free.

    Scores any label whose surface words appear in the premise, whether or
    not the label was ever seen in training, which is what makes it a
    usable zero-shot toy scorer.
    """

    identity = "overlap"

    def __init__(self):
        # surface -> its content tokens, scaffold words dropped
        self._surface_tokens: dict[str, tuple[str, ...]] = {}

    def score(self, pair: PremiseHypothesisPair) -> float:
        return overlap_score(pair)

    def score_candidates(self, candidates: TypeCandidates) -> list[float]:
        """``overlap_score`` of every candidate pair, without building the pairs.

        A hypothesis is ``head + surface + tail``, and each boundary is
        whitespace or a punctuation-only tail, so its content tokens are
        the frame's (head and tail) plus the surface's. The premise and the
        frame are tokenized once per call, each distinct surface once per
        scorer; a label then adds only its surface tokens not in the frame.
        """
        premise = _content_tokens(candidates.premise)
        frame = (
            _content_tokens(candidates.head) | _content_tokens(candidates.tail)
        ) - SCAFFOLD_TOKENS
        frame_hits, frame_size = len(frame & premise), len(frame)
        memo = self._surface_tokens
        # one float per distinct (hits, size), shared by every label with it
        ratios: dict[tuple[int, int], float] = {}
        scores = []
        for surface in candidates.surfaces:
            tokens = memo.get(surface)
            if tokens is None:
                tokens = memo[surface] = tuple(_content_tokens(surface) - SCAFFOLD_TOKENS)
            hits, size = frame_hits, frame_size
            for tok in tokens:
                if tok not in frame:
                    size += 1
                    hits += tok in premise
            key = (hits, size)
            score = ratios.get(key)
            if score is None:
                score = ratios[key] = hits / size if size else 0.0
            scores.append(score)
        return scores


class TableScorer(EntailmentScorer):
    """Lookup scorer over an explicit (premise, hypothesis) -> score table.

    Unknown pairs fall back to ``default``. Lookup never fails, so fixtures
    stay small: only the pairs a test cares about need entries. The
    identity is a SHA-256 of the entries and the default as constructed.
    """

    def __init__(
        self,
        table: dict[tuple[str, str], float],
        default: float = 0.0,
    ):
        try:
            self._table = {key: unit_score(value) for key, value in table.items()}
            self.default = unit_score(default)
        except ValueError as exc:
            raise ValidationError(f"table {exc}") from None
        content = json.dumps([self.default, sorted(self._table.items())])
        self._identity = "table:" + hashlib.sha256(content.encode()).hexdigest()

    @property
    def identity(self) -> str:
        return self._identity

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "TableScorer":
        """Load a table from JSONL records {premise, hypothesis, score}.

        A record {"default": x} (no premise key) sets the fallback score.
        """
        table: dict[tuple[str, str], float] = {}
        default = None
        for lineno, record in numbered_jsonl(path):
            where = f"{path}:{lineno}"
            if "premise" not in record and "default" in record:
                value = _table_number(record, "default", where)
                if default is not None:
                    raise ValidationError(f"{where}: duplicate default record")
                default = value
                continue
            for key in ("premise", "hypothesis", "score"):
                if key not in record:
                    raise ValidationError(f"{where}: missing key {key!r}")
            premise, hypothesis = record["premise"], record["hypothesis"]
            if not isinstance(premise, str) or not isinstance(hypothesis, str):
                raise ValidationError(f"{where}: premise and hypothesis must be strings")
            value = _table_number(record, "score", where)
            if (premise, hypothesis) in table:
                raise ValidationError(
                    f"{where}: duplicate record for premise {premise!r}, hypothesis {hypothesis!r}"
                )
            table[(premise, hypothesis)] = value
        return cls(table, default=0.0 if default is None else default)

    def score(self, pair: PremiseHypothesisPair) -> float:
        return self._table.get((pair.premise, pair.hypothesis), self.default)

    def score_candidates(self, candidates: TypeCandidates) -> list[float]:
        """Look up ``(premise, head + surface + tail)`` for every label, building no pairs."""
        table, default = self._table, self.default
        premise, head, tail = candidates.premise, candidates.head, candidates.tail
        return [table.get((premise, head + s + tail), default) for s in candidates.surfaces]


def _table_number(record: dict, key: str, where: str) -> float:
    """A table record's ``key`` as a float in [0, 1]; anything else raises naming ``where``."""
    value = record[key]
    try:
        return unit_score(value)
    except ValueError:
        raise ValidationError(
            f"{where}: {key} must be a JSON number in [0, 1], got {value!r}"
        ) from None


class TrainableTableScorer(TableScorer, TrainableScorer):
    """Table scorer with additive margin updates; a deterministic trainer stub.

    When a positive fails to beat a negative by the margin (a positive
    :func:`margin_ranking_loss`), the pending step moves the positive's
    entry up and the negative's down by ``lr * weight``. ``apply_update``
    applies all pending steps and clips to [0, 1]; ``restore`` is bit-stable.
    """

    def __init__(
        self,
        table: dict[tuple[str, str], float] | None = None,
        default: float = 0.5,
        lr: float = 0.1,
    ):
        super().__init__(table or {}, default)
        self.lr = lr
        self._pending: dict[tuple[str, str], float] = {}
        self._snapshots: dict[str, dict[tuple[str, str], float]] = {}

    def _key(self, pair: PremiseHypothesisPair) -> tuple[str, str]:
        return (pair.premise, pair.hypothesis)

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
            violation = margin_ranking_loss(pos_score, self.score(neg), margin)
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
        self._changes += 1

    def snapshot(self) -> str:
        tag = f"ckpt-{len(self._snapshots):04d}"
        self._snapshots[tag] = dict(self._table)
        return tag

    def restore(self, tag: str) -> None:
        if tag not in self._snapshots:
            raise ValidationError(f"unknown checkpoint tag {tag!r}")
        self._table = dict(self._snapshots[tag])
        self._pending.clear()
        self._changes += 1


class ExternalEndpoint:
    """A scorer process spoken to over stdin/stdout in UTF-8 JSONL.

    Score requests are {id, premise, hypothesis}, answered by {id,
    entailment}, or per mention {id, premise, hypothesis, head, tail,
    surfaces}, answered by {id, entailments}; the endpoint answers one line
    per request, in order, preserving ids. Control requests (training only)
    carry an "op" key instead of an id.
    """

    # Seconds a closing endpoint gets to exit on its own before it is killed.
    CLOSE_WAIT_S = 10.0
    # Most requests written before their responses are read.
    WINDOW = 256

    def __init__(self, command: Sequence[str]):
        if not command:
            raise ConfigError("external scorer command is empty")
        self.command = tuple(command)
        self._proc: subprocess.Popen | None = None

    def _ensure_started(self) -> subprocess.Popen:
        """The running endpoint, started on first use or after :meth:`close`.

        One that has exited is reaped, not replaced, since a fresh process
        would lose trained parameters under the same version tag; every use
        then raises ``TransportError`` until ``close``.
        """
        if self._proc is not None and self._proc.poll() is not None:
            self._release(self._proc)
            raise TransportError(
                f"scorer endpoint {shlex.join(self.command)!r} exited with code "
                f"{self._proc.returncode}"
            )
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
        """Send request lines, read exactly one response line per request.

        A window of at most ``WINDOW`` requests is written, then its
        responses are read, so the pipes cannot both fill; this assumes a
        window's responses fit in the endpoint's stdout pipe buffer. A
        window is encoded whole before any of it is written, so a request
        that UTF-8 cannot encode raises ``ValidationError`` with nothing
        sent. Each reply must be a JSON object and echo its request's id,
        when the request has one. Replies come from a pipe as they are
        written, not from a file, so this loop reads them itself rather
        than through the shared line reader.
        """
        proc = self._ensure_started()
        assert proc.stdin is not None and proc.stdout is not None
        responses = []
        for start in range(0, len(requests), self.WINDOW):
            window = requests[start:start + self.WINDOW]
            text = "".join(json.dumps(request, ensure_ascii=False) + "\n" for request in window)
            try:
                data = text.encode("utf-8")
            except UnicodeEncodeError as exc:
                # JSON escapes newlines inside strings, so each one ends a request
                request = window[text.count("\n", 0, exc.start)]
                name = request.get("id", request.get("op"))
                raise ValidationError(
                    f"request {name!r} holds a lone surrogate, which UTF-8 cannot encode") from None
            try:
                proc.stdin.buffer.write(data)
                proc.stdin.buffer.flush()
            except (BrokenPipeError, OSError) as exc:
                raise TransportError(f"scorer endpoint not reachable for writes: {exc}") from None
            for request in window:
                try:
                    line = proc.stdout.readline()
                except UnicodeDecodeError as exc:
                    raise ProtocolError(f"endpoint reply is not UTF-8: {exc}") from None
                if not line:
                    raise ProtocolError(
                        f"response length mismatch: endpoint closed after "
                        f"{len(responses)} of {len(requests)} responses"
                    )
                try:
                    response = json.loads(line)
                except ValueError as exc:  # also an integer too long to convert
                    raise ProtocolError(f"invalid JSON from endpoint: {exc}") from None
                name = request.get("id", request.get("op"))
                if not isinstance(response, dict):
                    raise ProtocolError(f"reply to {name!r} is not a JSON object: {response!r}")
                if "id" in request and response.get("id") != name:
                    raise ProtocolError(f"id mismatch: sent {name!r}, got {response.get('id')!r}")
                responses.append(response)
        return responses

    def close(self) -> None:
        """Close both pipes and reap the process, whether or not it already exited.

        Closing stdin asks a live endpoint to exit; one still running after
        ``CLOSE_WAIT_S`` is killed.
        """
        proc, self._proc = self._proc, None
        if proc is not None:
            self._release(proc)

    def _release(self, proc: subprocess.Popen) -> None:
        """Close ``proc``'s pipes and reap it, killing it after ``CLOSE_WAIT_S``."""
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


def _reply_number(value, what: str) -> float:
    """An endpoint's JSON number as a float; anything else, or a non-finite value, raises."""
    try:
        number = json_number(value)
    except ValueError:
        raise ProtocolError(f"non-numeric {what} {value!r}") from None
    if not math.isfinite(number):
        raise ProtocolError(f"non-finite {what} {value!r}")
    return number


def _reply_score(value) -> float:
    """An endpoint's entailment score as a float in [0, 1]; anything else raises."""
    try:
        return unit_score(_reply_number(value, "entailment score"))
    except ValueError as exc:
        raise ProtocolError(f"entailment {exc}") from None


class ExternalScorer(EntailmentScorer):
    """EntailmentScorer backed by an external process endpoint.

    ``score_candidates`` sends one request per mention, carrying the
    premise, the frame and every surface, and reads back one score per
    surface. The request is also a pair request for its first label, so an
    endpoint that answers it with a single ``entailment`` speaks pairs
    only: that reply is dropped, and from then on this scorer ranks through
    ``score_batch`` of the candidate pairs.
    """

    def __init__(self, command: Sequence[str]):
        self.endpoint = ExternalEndpoint(command)
        self._pairs_sent = 0
        self._mentions_sent = 0
        self._pairs_only = False

    @property
    def identity(self) -> str:
        return "external:" + shlex.join(self.endpoint.command)

    def score(self, pair: PremiseHypothesisPair) -> float:
        return self.score_batch([pair])[0]

    def score_batch(self, pairs: Sequence[PremiseHypothesisPair]) -> list[float]:
        """Score pairs through the endpoint, enforcing the wire contract.

        Violations surface as errors rather than bad numbers: a dropped or
        extra response line, a reply that is not a JSON object, a shuffled
        or stale id, or a score outside [0, 1] each raise. Pair ids never
        repeat within a scorer, so a reply left over from an earlier batch
        cannot pass.
        """
        if not pairs:
            return []
        first = self._pairs_sent
        self._pairs_sent += len(pairs)
        requests = [
            {"id": f"q{first + i:06d}", "premise": p.premise, "hypothesis": p.hypothesis}
            for i, p in enumerate(pairs)
        ]
        scores = []
        for request, response in zip(requests, self.endpoint.round_trip(requests)):
            if "entailment" not in response:
                raise ProtocolError(f"response for {request['id']!r} lacks an entailment score")
            scores.append(_reply_score(response["entailment"]))
        return scores

    def score_candidates(self, candidates: TypeCandidates) -> list[float]:
        surfaces = list(candidates.surfaces)
        if not surfaces or self._pairs_only:
            return self.score_batch(candidates.pairs())
        # ids never repeat within a scorer, so a stale reply cannot pass
        request_id = f"m{self._mentions_sent:06d}"
        self._mentions_sent += 1
        head, tail = candidates.head, candidates.tail
        request = {"id": request_id, "premise": candidates.premise,
                   "hypothesis": head + surfaces[0] + tail,
                   "head": head, "tail": tail, "surfaces": surfaces}
        [response] = self.endpoint.round_trip([request])
        if "entailments" not in response:
            if "entailment" not in response:
                raise ProtocolError(f"response for {request_id!r} lacks entailment scores")
            self._pairs_only = True
            return self.score_batch(candidates.pairs())
        entailments = response["entailments"]
        if not isinstance(entailments, list):
            raise ProtocolError(f"entailments for {request_id!r} are not a list: {entailments!r}")
        if len(entailments) != len(surfaces):
            raise ProtocolError(
                f"response length mismatch: {len(entailments)} entailment scores "
                f"for {len(surfaces)} surfaces in {request_id!r}"
            )
        return [_reply_score(value) for value in entailments]

    def close(self) -> None:
        self.endpoint.close()


class ExternalTrainableScorer(ExternalScorer, TrainableScorer):
    """Trainable scorer behind the process boundary.

    Extends the wire protocol with control ops the endpoint must implement:
    {"op": "accumulate", margin, weight, positive, negatives} -> {"loss": x},
    {"op": "update"} -> {"ok": true}, {"op": "snapshot"} -> {"tag": t}, and
    {"op": "restore", "tag": t} -> {"ok": true}. Plain score requests are
    unchanged. A reply without its key, with ``ok`` other than true, with a
    ``loss`` that is not a finite number, or with a ``tag`` that is not a
    non-empty string raises ``ProtocolError``.
    """

    def _control(self, request: dict, key: str):
        """Send one control op and return its reply's ``key`` value."""
        [response] = self.endpoint.round_trip([request])
        value = response.get(key)
        if value is None or (key == "ok" and value is not True):
            raise ProtocolError(f"{request['op']} reply has no valid {key!r}: {response!r}")
        return value

    def accumulate_ranking_loss(
        self,
        pos_pair: PremiseHypothesisPair,
        neg_pairs: Sequence[PremiseHypothesisPair],
        margin: float,
        weight: float = 1.0,
    ) -> float:
        request = {
            "op": "accumulate",
            "margin": margin,
            "weight": weight,
            "positive": {"premise": pos_pair.premise, "hypothesis": pos_pair.hypothesis},
            "negatives": [{"premise": n.premise, "hypothesis": n.hypothesis} for n in neg_pairs],
        }
        return _reply_number(self._control(request, "loss"), "accumulate loss")

    def apply_update(self) -> None:
        self._control({"op": "update"}, "ok")
        self._changes += 1

    def snapshot(self) -> str:
        tag = self._control({"op": "snapshot"}, "tag")
        # a lone surrogate could not be sent back in a restore request
        if not isinstance(tag, str) or not tag or has_lone_surrogate(tag):
            raise ProtocolError(f"snapshot reply has no valid 'tag': {tag!r}")
        return tag

    def restore(self, tag: str) -> None:
        self._control({"op": "restore", "tag": tag}, "ok")
        self._changes += 1


# A record key: a SHA-256 digest in lowercase hex.
_KEY = re.compile(r"[0-9a-f]{64}")


def _checked_record(key, scores, where: str) -> list[float]:
    """A record's scores as a list of floats; a bad key or score raises naming ``where``."""
    if type(key) is not str or not _KEY.fullmatch(key):
        raise CacheError(
            f'{where}: bad cache record: "k" must be a SHA-256 hex digest, got {key!r}')
    if type(scores) is not list:
        raise CacheError(f'{where}: bad cache record: "s" must be a list of scores, '
                         f"got {type(scores).__name__}")
    try:
        return [s if type(s) is float and 0.0 <= s <= 1.0 else unit_score(s) for s in scores]
    except ValueError as exc:
        raise CacheError(f"{where}: bad cache record: {exc}") from None


class ScoreCache:
    """Append-only persistent cache of per-mention scores.

    Records are JSONL {"k": key, "s": [score, ...]}: one record per mention,
    one score per surface of its :class:`TypeCandidates`, in order. The key
    (:meth:`key`) is a SHA-256 of the scorer's tag, the premise, the frame
    and the whole surface list, so a mention ranked by another scorer or
    state, or against another vocabulary or label order, misses in full.
    Records of the earlier per-pair format are refused. Each record's scores
    are held as one array of doubles; ``len`` counts the scores held.

    :meth:`put` appends one record with one flush, so a crash loses at most
    the mention in flight and may leave a torn final line. On load an
    unparseable final line without a newline is cut off the file; any other
    bad line raises ``CacheError`` naming ``path:line``.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[str, array.array] = {}
        last_line = self._load() if self.path.exists() else b""
        self._handle = open(self.path, "a", encoding="utf-8")
        if last_line and not last_line.endswith(b"\n"):
            self._handle.write("\n")
            self._handle.flush()

    def _load(self) -> bytes:
        """Read every record, cutting off a torn tail; return the last line kept.

        This loop reads bytes rather than going through the shared line
        reader, because a torn tail is cut off at its byte offset.
        """
        offset, last_line, torn = 0, b"", False
        with open(self.path, "rb") as f:
            for lineno, raw in enumerate(f, start=1):
                if raw.strip():
                    where = f"{self.path}:{lineno}"
                    try:
                        record = json.loads(raw)
                    except ValueError as exc:
                        if not raw.endswith(b"\n"):
                            torn = True  # an append cut short by a crash
                            break
                        raise CacheError(f"{where}: invalid JSON: {exc}") from None
                    if not isinstance(record, dict):
                        raise CacheError(f"{where}: bad cache record: not a JSON object")
                    if "k" not in record and "v" in record:
                        raise CacheError(f"{where}: bad cache record: a per-pair record of an "
                                         "earlier cache format; start a new cache file")
                    key = record.get("k")
                    checked = _checked_record(key, record.get("s"), where)
                    self._entries[key] = array.array("d", checked)
                offset += len(raw)
                last_line = raw
        if torn:
            os.truncate(self.path, offset)
        return last_line

    @staticmethod
    def key(tag: str, candidates: TypeCandidates) -> str:
        """The record key of ``candidates`` scored by the scorer named ``tag``.

        It is the SHA-256, in lowercase hex, of the JSON text of the tag, the
        premise, the head, the tail and the surface list, computed once per
        mention. A JSON array spells each string whole, so two inputs never
        share a text.
        """
        text = json.dumps([tag, candidates.premise, candidates.head, candidates.tail,
                           candidates.surfaces])
        return hashlib.sha256(text.encode()).hexdigest()

    def get(self, key: str, size: int) -> list[float] | None:
        """The scores recorded under ``key`` as a fresh list, else None.

        A record holding other than ``size`` scores raises ``CacheError``.
        """
        scores = self._entries.get(key)
        if scores is None:
            return None
        if len(scores) != size:
            raise CacheError(
                f"{self.path}: record {key} holds {len(scores)} scores for {size} surfaces")
        return scores.tolist()

    def put(self, key: str, scores: list[float]) -> None:
        """Record a mention's scores under ``key``, appending its line with one flush.

        A key already recorded is left as it is. A bad key, or a score failing
        :func:`unit_score`, raises ``CacheError`` and nothing is recorded.
        """
        checked = _checked_record(key, scores, str(self.path))
        if key not in self._entries:
            self._entries[key] = array.array("d", checked)
            self._handle.write(json.dumps({"k": key, "s": checked}) + "\n")
            self._handle.flush()

    def __len__(self) -> int:
        return sum(map(len, self._entries.values()))

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "ScoreCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CachedScorer(EntailmentScorer):
    """Wrap any scorer with a ScoreCache around its per-mention ranking.

    Only ``score_candidates`` reads or writes the cache, one record per
    mention under the wrapped scorer's ``identity`` and ``version_tag``: a
    cached mention is served whole, any other is scored whole by the
    wrapped scorer's ``score_candidates`` and recorded. A reply with the
    wrong number of scores, or a score failing :func:`unit_score`, raises
    :class:`ValidationError` before anything is written. ``score`` and
    ``score_batch`` pass straight through to the wrapped scorer, uncached;
    ranking never calls them.
    """

    def __init__(self, inner: EntailmentScorer, cache: ScoreCache):
        self.inner = inner
        self.cache = cache

    @property
    def version_tag(self) -> str:
        return self.inner.version_tag

    def score(self, pair: PremiseHypothesisPair) -> float:
        return self.inner.score(pair)

    def score_batch(self, pairs: Sequence[PremiseHypothesisPair]) -> list[float]:
        return self.inner.score_batch(pairs)

    def score_candidates(self, candidates: TypeCandidates) -> list[float]:
        inner, labels = self.inner, candidates.labels
        key = self.cache.key(f"{inner.identity} {inner.version_tag}", candidates)
        scores = self.cache.get(key, len(labels))
        if scores is None:
            scores = check_scores(inner.score_candidates(candidates), len(labels),
                                  lambda i: labels[i].raw)
            self.cache.put(key, scores)
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
        if not path.is_file():
            raise ConfigError(f"scorer table file not found: {path}")
        return path

    if spec == "overlap":
        return OverlapScorer()
    if spec.startswith("table:"):
        return TableScorer.from_jsonl(resolve(spec[len("table:"):]))
    if spec == "trainable-table":
        return TrainableTableScorer()
    if spec.startswith("trainable-table:"):
        return TrainableTableScorer.from_jsonl(resolve(spec[len("trainable-table:"):]))
    if spec.startswith("external-trainable:"):
        return ExternalTrainableScorer(shlex.split(spec[len("external-trainable:"):]))
    if spec.startswith("external:"):
        return ExternalScorer(shlex.split(spec[len("external:"):]))
    raise ConfigError(f"unknown scorer spec {spec!r}")
