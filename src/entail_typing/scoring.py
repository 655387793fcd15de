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
:class:`ExternalScorer` does with one request line per mention. It
returns a list of scores or, as the overlap scorer does, :class:`ScoreGroups`:
a default score per group of labels plus exceptions.
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

    @property
    def cache_tag(self) -> str:
        """Names the scorer's current scores in score-cache keys."""
        return f"{self.identity} {self.version_tag}"

    @abc.abstractmethod
    def score(self, pair: PremiseHypothesisPair) -> float:
        raise NotImplementedError

    def score_batch(self, pairs: Sequence[PremiseHypothesisPair]) -> list[float]:
        """Order-preserving batch scoring; semantically identical to a score loop."""
        return [self.score(p) for p in pairs]

    def score_candidates(self, candidates: TypeCandidates) -> "list[float] | ScoreGroups":
        """Score one mention's type hypotheses: one score per ``candidates.pairs()``.

        The scores come as a list or, from a scorer that knows them in a few
        groups, as :class:`ScoreGroups`.
        """
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


class ScoreGroups(Sequence[float]):
    """One mention's scores as groups plus exceptions: a sparse return of ``score_candidates``.

    Every position lies in one group: ``group_of[i]`` is position ``i``'s
    group, and ``members[g]`` lists group ``g``'s positions in ascending
    order. Position ``i`` scores ``exceptions[i]`` when it has one, else its
    group's entry of ``defaults``. It reads as the list of scores it stands
    for: indexing, slicing, iteration, ``len`` and ``==`` with a list all see
    that list, which is built only when iterated or sliced. :func:`check_scores`
    rejects groups whose member lists, one per default, do not list the
    positions ``group_of`` puts in each group, or with an exception not keyed
    by a position.
    """

    __slots__ = ("defaults", "group_of", "members", "exceptions")

    def __init__(self, defaults: Sequence[float], group_of: Sequence[int],
                 members: Sequence[Sequence[int]], exceptions: dict[int, float]):
        self.defaults = defaults
        self.group_of = group_of
        self.members = members
        self.exceptions = exceptions

    def __len__(self) -> int:
        return len(self.group_of)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        i = range(len(self.group_of))[index]
        score = self.exceptions.get(i)
        return self.defaults[self.group_of[i]] if score is None else score

    def __iter__(self):
        scores = list(map(self.defaults.__getitem__, self.group_of))
        for i, score in self.exceptions.items():
            scores[i] = score
        return iter(scores)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, ScoreGroups)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # as a list's

    def __repr__(self) -> str:
        return f"ScoreGroups({list(self)!r})"


class CheckedScores(list):
    """A list of scores known to pass :func:`unit_score`, so never checked again.

    :func:`check_scores` makes them, and so does an external scorer of its
    replies, each score checked as it is read.
    """

    __slots__ = ()


# The (group_of, members) pairs last found or built to agree, the least
# recently used first, keyed by their ids: holding each pair keeps its ids
# from naming other objects.
_AGREEING: dict[tuple[int, int], tuple[Sequence[int], Sequence[Sequence[int]]]] = {}
_AGREEING_HELD = 4


def _agreeing(group_of: Sequence[int], members: Sequence[Sequence[int]]) -> None:
    """Hold ``group_of`` and ``members`` as agreeing, the pair used last."""
    _AGREEING[(id(group_of), id(members))] = (group_of, members)
    if len(_AGREEING) > _AGREEING_HELD:
        # another thread may have dropped the oldest pair since
        _AGREEING.pop(next(iter(_AGREEING), None), None)


def _disagreement(group_of: Sequence[int], members: Sequence[Sequence[int]]) -> str:
    """Why some ``members[g]`` is not the ascending ``i`` with ``group_of[i] == g``, else ''."""
    listed: list[list[int]] = [[] for _ in members]
    for i, g in enumerate(group_of):
        if type(g) is not int or not 0 <= g < len(listed):
            return f"ScoreGroups group_of[{i}] is {g!r}, not one of its {len(listed)} groups"
        listed[g].append(i)
    for g, (positions, held) in enumerate(zip(listed, members)):
        if positions != list(held):
            return (f"ScoreGroups members[{g}] is not the ascending list of the positions "
                    f"group_of puts in group {g}")
    return ""


def _readonly_groups(group_of: list[int], count: int) -> tuple["bytes | memoryview", tuple]:
    """``group_of``, every value in ``range(count)``, and the members of its groups, read-only.

    ``group_of`` is held as bytes while ``count`` is at most 256, else as C
    unsigned longs, and each group's positions as an ascending array of C
    unsigned ints. The two agree by construction, and are held as agreeing.
    """
    by_group: list[list[int]] = [[] for _ in range(count)]
    for i, g in enumerate(group_of):
        by_group[g].append(i)
    held = (bytes(group_of) if count <= 256
            else memoryview(array.array("L", group_of)).toreadonly())
    members = tuple(memoryview(array.array("I", positions)).toreadonly()
                    for positions in by_group)
    _agreeing(held, members)
    return held, members


def _unit_floats(scores: Sequence[float]) -> bool:
    """Whether every score is a float in [0, 1]: the common case, checked in one pass."""
    return not [s for s in scores if type(s) is not float or not 0.0 <= s <= 1.0]


def check_scores(scores, expected: int,
                 label_raw: Callable[[int], str]) -> "CheckedScores | ScoreGroups":
    """``expected`` scores, each passing :func:`unit_score`, else :class:`ValidationError`.

    ``label_raw(i)`` names the label of score ``i``, and the first bad one is
    named. :class:`CheckedScores` are returned as they are, and so are
    well-formed :class:`ScoreGroups` (malformed ones raise) whose every
    default and exception is a float in [0, 1]. Groups' ``members`` are
    checked against their ``group_of`` once per pair of objects, the few
    pairs used last that agree, or that :func:`_readonly_groups` built, being
    held. Other scores are checked as a fresh
    :class:`CheckedScores`, which of groups reads no default serving no
    label.
    """
    if type(scores) is ScoreGroups:
        group_of, members = scores.group_of, scores.members
        size, held = len(group_of), sum(map(len, members))
        if held != size or len(members) != len(scores.defaults):
            raise ValidationError(f"ScoreGroups has {len(scores.defaults)} defaults and "
                                  f"{len(members)} member lists holding {held} "
                                  f"positions for {size} labels")
        if _AGREEING.pop((id(group_of), id(members)), None) is None:
            problem = _disagreement(group_of, members)
            if problem:
                raise ValidationError(problem)
        _agreeing(group_of, members)
        bad = [i for i in scores.exceptions if type(i) is not int or not 0 <= i < size]
        if bad:
            raise ValidationError(f"ScoreGroups exception key {bad[0]!r} is not one of "
                                  f"its {size} positions")
        fresh = not _unit_floats([*scores.defaults, *scores.exceptions.values()])
    else:
        fresh = type(scores) is not CheckedScores
    if fresh:
        scores = CheckedScores(scores)
    if len(scores) != expected:
        raise ValidationError(f"scorer returned {len(scores)} scores for {expected} pairs")
    if not fresh or _unit_floats(scores):
        return scores
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
    normalization and the dependency-term weight). ``accumulate_batch``
    takes a whole batch's examples at once: no loss depends on the
    parameters before the next ``apply_update``, so an implementation may
    send them all before it reads any loss.

    ``version_tag`` is ``v<n>``, n counting every ``apply_update`` and every
    successful ``restore``: no tag names two parameter states, so a cache
    re-scores a restored state rather than serve another state's scores.
    Two scorers built from the same start reach the same ``v<n>`` by
    different training, so from ``v1`` on ``cache_tag`` also holds a token
    drawn once per scorer instance.
    """

    _changes = 0  # implementations call _changed once per update and per restore
    _token = ""  # drawn at the first change

    @property
    def version_tag(self) -> str:
        return f"v{self._changes}"

    @property
    def cache_tag(self) -> str:
        tag = super().cache_tag
        return f"{tag} {self._token}" if self._changes else tag

    def _changed(self) -> None:
        """Count one update or restore; the first draws this instance's token."""
        if not self._changes:
            self._token = os.urandom(16).hex()
        self._changes += 1

    @abc.abstractmethod
    def accumulate_ranking_loss(
        self,
        pos_pair: PremiseHypothesisPair,
        neg_pairs: Sequence[PremiseHypothesisPair],
        margin: float,
        weight: float = 1.0,
    ) -> float:
        raise NotImplementedError

    def accumulate_batch(
        self,
        examples: Sequence[tuple[PremiseHypothesisPair, Sequence[PremiseHypothesisPair], float]],
        margin: float,
    ) -> list[float]:
        """The ``accumulate_ranking_loss`` of each (positive, negatives, weight) example, in order."""
        return [self.accumulate_ranking_loss(pos_pair, neg_pairs, margin, weight=weight)
                for pos_pair, neg_pairs, weight in examples]

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


class _SurfaceIndex:
    """An inverted index of one surface list, for :func:`_overlap_scores`.

    ``sizes[i]`` counts surface ``i``'s scaffold-free content tokens, ``top``
    is the largest count, and ``members[n]`` lists the positions of the
    surfaces of ``n`` tokens in ascending order, as a read-only view of an
    array of C ints. ``sizes`` is read-only too, so the :class:`ScoreGroups`
    built on them, and the score cache holding those, share them safely.
    ``postings`` maps each such token to the
    position of the one surface holding it, as an int, or to the list of
    positions of several. A token spelled like its surface is keyed by the
    surface string itself.
    """

    __slots__ = ("surfaces", "sizes", "top", "members", "postings")

    def __init__(self, surfaces: tuple[str, ...]):
        sizes = []
        postings: dict[str, int | list[int]] = {}
        for i, surface in enumerate(surfaces):
            if surface.isalnum():
                # no whitespace or punctuation: one token, the surface lowercased
                tok = surface.lower()
                tokens = () if tok in SCAFFOLD_TOKENS else (tok,)
            else:
                tokens = _content_tokens(surface) - SCAFFOLD_TOKENS
            sizes.append(len(tokens))
            for tok in tokens:
                held = postings.get(tok)
                if held is None:
                    postings[surface if tok == surface else tok] = i
                elif type(held) is int:
                    postings[tok] = [held, i]
                else:
                    held.append(i)
        self.surfaces = surfaces
        self.top = max(sizes, default=0)
        # one byte per surface; a surface of over 255 tokens widens every entry
        self.sizes, self.members = _readonly_groups(sizes, self.top + 1)
        self.postings = postings


def _overlap_scores(premise: str, head: str, tail: str, index: _SurfaceIndex) -> ScoreGroups:
    """The overlap score of each hypothesis ``head + surface + tail`` against ``premise``.

    A score is |H ∩ P| / |H|, or 0.0 when H is empty: H is the hypothesis's
    content tokens less the scaffold tokens, and P the premise's content
    tokens. A hypothesis's boundaries are whitespace or a punctuation-only
    tail, so H is the frame's tokens (head and tail) plus the surface's.
    The premise and frame are tokenized once per call. A surface that shares
    no token with P or the frame adds only its n tokens to |H|, so it scores
    as its frame does with ``n`` more tokens: the scores are grouped by n,
    each group's default being that score. ``index`` finds the surfaces that
    do share one, and only those are tokenized again, counted, and given an
    exception.
    """
    premise_tokens = _content_tokens(premise)
    frame = (_content_tokens(head) | _content_tokens(tail)) - SCAFFOLD_TOKENS
    frame_hits, frame_size = len(frame & premise_tokens), len(frame)

    def ratio(hits: int, size: int) -> float:
        """The score of H with ``hits`` and ``size`` beyond the frame's own."""
        hits, size = frame_hits + hits, frame_size + size
        return hits / size if size else 0.0

    touched: set[int] = set()
    postings = index.postings
    indexed = postings.keys()
    for tok in (indexed & premise_tokens) | (indexed & frame):
        held = postings[tok]
        if type(held) is int:
            touched.add(held)
        else:
            touched.update(held)
    surfaces = index.surfaces
    exceptions = {}
    for i in touched:
        hits = size = 0
        for tok in _content_tokens(surfaces[i]) - SCAFFOLD_TOKENS:
            if tok not in frame:
                size += 1
                hits += tok in premise_tokens
        exceptions[i] = ratio(hits, size)
    defaults = [ratio(0, n) for n in range(index.top + 1)]
    return ScoreGroups(defaults, index.sizes, index.members, exceptions)


# The index of the one empty surface that a pair's hypothesis is framed around.
_PAIR_INDEX = _SurfaceIndex(("",))


def overlap_score(pair: PremiseHypothesisPair) -> float:
    """The :func:`_overlap_scores` score of a pair: its hypothesis as head, one empty surface."""
    return _overlap_scores(pair.premise, pair.hypothesis, "", _PAIR_INDEX)[0]


class OverlapScorer(EntailmentScorer):
    """Lexical-overlap stand-in for an NLI model; deterministic, model-free.

    Scores any label whose surface words appear in the premise, whether or
    not the label was ever seen in training, which is what makes it a
    usable zero-shot toy scorer. It indexes each surface list it ranks
    against on first use and keeps the two indexes used last, so a mention
    visits only the labels its words touch.
    """

    identity = "overlap"

    def __init__(self):
        # the two indexes used last, the latest first: a vocabulary's and,
        # under the substitution template, its capitalized twin
        self._indexes: list[_SurfaceIndex] = []

    def score(self, pair: PremiseHypothesisPair) -> float:
        return overlap_score(pair)

    def score_candidates(self, candidates: TypeCandidates) -> ScoreGroups:
        """``overlap_score`` of every candidate pair, from the index of ``candidates.surfaces``.

        The scores come as :class:`ScoreGroups`, one group per token count.

        The list's index is built on the first call that ranks against it.
        A list is known again by identity or, failing that, by its contents
        compared as a tuple, so a list changed in place is indexed again.
        A third list's index replaces the one used least recently.
        """
        return _overlap_scores(candidates.premise, candidates.head, candidates.tail,
                               self._index(candidates.surfaces))

    def _index(self, surfaces: Sequence[str]) -> _SurfaceIndex:
        indexes = self._indexes
        index = next((known for known in indexes if known.surfaces is surfaces), None)
        if index is None:
            surfaces = tuple(surfaces)
            index = next((known for known in indexes if known.surfaces == surfaces), None)
            if index is None:
                index = _SurfaceIndex(surfaces)
        if not indexes or indexes[0] is not index:
            self._indexes = [index, *indexes[:1]]
        return index


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

    @staticmethod
    def _key(pair: PremiseHypothesisPair) -> tuple[str, str]:
        return (pair.premise, pair.hypothesis)

    def score(self, pair: PremiseHypothesisPair) -> float:
        return self._table.get(self._key(pair), self.default)

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
        self._changed()

    def snapshot(self) -> str:
        tag = f"ckpt-{len(self._snapshots):04d}"
        self._snapshots[tag] = dict(self._table)
        return tag

    def restore(self, tag: str) -> None:
        if tag not in self._snapshots:
            raise ValidationError(f"unknown checkpoint tag {tag!r}")
        self._table = dict(self._snapshots[tag])
        self._pending.clear()
        self._changed()


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

    def score_batch(self, pairs: Sequence[PremiseHypothesisPair]) -> CheckedScores:
        """Score pairs through the endpoint, enforcing the wire contract.

        Violations surface as errors rather than bad numbers: a dropped or
        extra response line, a reply that is not a JSON object, a shuffled
        or stale id, or a score outside [0, 1] each raise. Pair ids never
        repeat within a scorer, so a reply left over from an earlier batch
        cannot pass. Each score is checked as it is read: they come as
        :class:`CheckedScores`.
        """
        if not pairs:
            return CheckedScores()
        first = self._pairs_sent
        self._pairs_sent += len(pairs)
        requests = [
            {"id": f"q{first + i:06d}", "premise": p.premise, "hypothesis": p.hypothesis}
            for i, p in enumerate(pairs)
        ]
        scores = CheckedScores()
        for request, response in zip(requests, self.endpoint.round_trip(requests)):
            if "entailment" not in response:
                raise ProtocolError(f"response for {request['id']!r} lacks an entailment score")
            scores.append(_reply_score(response["entailment"]))
        return scores

    def score_candidates(self, candidates: TypeCandidates) -> CheckedScores:
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
        # floats in [0, 1] are checked in one pass; else score by score, naming the first bad one
        if _unit_floats(entailments):
            return CheckedScores(entailments)
        return CheckedScores(map(_reply_score, entailments))

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

    @staticmethod
    def _reply_value(request: dict, response: dict, key: str):
        """The ``key`` value of a control op's reply, checked."""
        value = response.get(key)
        if value is None or (key == "ok" and value is not True):
            raise ProtocolError(f"{request['op']} reply has no valid {key!r}: {response!r}")
        return value

    def _control(self, request: dict, key: str):
        """Send one control op and return its reply's ``key`` value."""
        [response] = self.endpoint.round_trip([request])
        return self._reply_value(request, response, key)

    def accumulate_ranking_loss(
        self,
        pos_pair: PremiseHypothesisPair,
        neg_pairs: Sequence[PremiseHypothesisPair],
        margin: float,
        weight: float = 1.0,
    ) -> float:
        # this class's batch, not an override's, which may loop over this method
        [loss] = ExternalTrainableScorer.accumulate_batch(
            self, [(pos_pair, neg_pairs, weight)], margin)
        return loss

    def accumulate_batch(
        self,
        examples: Sequence[tuple[PremiseHypothesisPair, Sequence[PremiseHypothesisPair], float]],
        margin: float,
    ) -> list[float]:
        """One ``accumulate`` op per example, all sent in one :meth:`ExternalEndpoint.round_trip`.

        Every reply is read before any is checked, so the endpoint stays in
        step when one is bad: the first bad reply raises, and the examples
        sent after it were accumulated all the same.
        """
        if not examples:
            return []
        requests = [
            {
                "op": "accumulate",
                "margin": margin,
                "weight": weight,
                "positive": {"premise": pos_pair.premise, "hypothesis": pos_pair.hypothesis},
                "negatives": [{"premise": n.premise, "hypothesis": n.hypothesis}
                              for n in neg_pairs],
            }
            for pos_pair, neg_pairs, weight in examples
        ]
        return [
            _reply_number(self._reply_value(request, response, "loss"), "accumulate loss")
            for request, response in zip(requests, self.endpoint.round_trip(requests))
        ]

    def apply_update(self) -> None:
        self._control({"op": "update"}, "ok")
        self._changed()

    def snapshot(self) -> str:
        tag = self._control({"op": "snapshot"}, "tag")
        # a lone surrogate could not be sent back in a restore request
        if not isinstance(tag, str) or not tag or has_lone_surrogate(tag):
            raise ProtocolError(f"snapshot reply has no valid 'tag': {tag!r}")
        return tag

    def restore(self, tag: str) -> None:
        self._control({"op": "restore", "tag": tag}, "ok")
        self._changed()


# A record key: a SHA-256 digest in lowercase hex.
_KEY = re.compile(r"[0-9a-f]{64}")


def _checked_record(key, scores, where: str) -> "CheckedScores | ScoreGroups":
    """A record's scores as :func:`check_scores` returns them, its key checked.

    A key that is not a SHA-256 hex digest, scores that are neither a list
    nor :class:`ScoreGroups`, or scores that :func:`check_scores` refuses
    (each named by its position) raise :class:`CacheError` naming ``where``.
    """
    if type(key) is not str or not _KEY.fullmatch(key):
        raise CacheError(
            f'{where}: bad cache record: "k" must be a SHA-256 hex digest, got {key!r}')
    if type(scores) not in (list, CheckedScores, ScoreGroups):
        raise CacheError(f'{where}: bad cache record: "s" must be a list of scores, '
                         f"got {type(scores).__name__}")
    try:
        return check_scores(scores, len(scores), str)
    except ValidationError as exc:
        raise CacheError(f"{where}: bad cache record: {exc}") from None


# A group line names at most this many groups more than it has values, so
# that a bad line cannot make loading build member lists without bound.
_SPARE_GROUPS = 256


def _named_groups(groups: ScoreGroups) -> int:
    """How many groups ``groups.group_of`` names, up to the last with members.

    Defaults past that group serve no label.
    """
    count = len(groups.members)
    while count and not len(groups.members[count - 1]):
        count -= 1
    return count


def _group_line(record: dict, number: int, where: str) -> tuple:
    """A group line's ``group_of`` and members, from :func:`_readonly_groups`.

    A line numbered other than ``number``, the count of group lines before
    it, whose ``"of"`` is not a list of non-negative ints, or that names
    over :data:`_SPARE_GROUPS` more groups than it has values, raises
    :class:`CacheError` naming ``where``.
    """
    if type(record["g"]) is not int or record["g"] != number:
        raise CacheError(f"{where}: bad cache record: group line {record['g']!r} "
                         f"where group line {number} was due")
    group_of = record.get("of")
    if (type(group_of) is not list or not set(map(type, group_of)) <= {int}
            or min(group_of, default=0) < 0):
        raise CacheError(f'{where}: bad cache record: "of" must be a list of group numbers')
    count = max(group_of, default=-1) + 1
    if count > len(group_of) + _SPARE_GROUPS:
        raise CacheError(f'{where}: bad cache record: "of" names {count} groups '
                         f"for {len(group_of)} values")
    return _readonly_groups(group_of, count)


def _grouped_record(record: dict, groups: list[tuple], where: str) -> ScoreGroups:
    """A grouped record line's scores, over the ``groups[g]`` its ``"g"`` names.

    A record naming no group line read before it, with other than one
    default per group, or whose ``"i"`` is not the ascending positions of
    the scores in ``"x"``, raises :class:`CacheError` naming ``where``;
    the scores themselves, and the key, are :func:`_checked_record`'s to check.
    """
    number = record["g"]
    if type(number) is not int or not 0 <= number < len(groups):
        raise CacheError(f"{where}: bad cache record: names unknown group line {number!r}")
    group_of, members = groups[number]
    defaults, positions, scores = record.get("d"), record.get("i"), record.get("x")
    if type(defaults) is not list or type(positions) is not list or type(scores) is not list:
        raise CacheError(f'{where}: bad cache record: "d", "i" and "x" must be lists')
    if len(defaults) != len(members):
        raise CacheError(f"{where}: bad cache record: {len(defaults)} defaults for group line "
                         f"{number}, whose group_of values name {len(members)} groups")
    if (len(positions) != len(scores) or not set(map(type, positions)) <= {int}
            or sorted(set(positions)) != positions):
        raise CacheError(f'{where}: bad cache record: "i" must list ascending positions, '
                         f'one per score in "x"')
    return ScoreGroups(tuple(defaults), group_of, members, dict(zip(positions, scores)))


# one-digit byte values to their ASCII digits
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _int_list_json(values: bytes | tuple[int, ...]) -> str:
    """``json.dumps(list(values))``, spelled at C speed when ``values`` are bytes below 10."""
    if type(values) is not bytes or max(values, default=0) >= 10:
        return json.dumps(list(values))
    text = bytearray(b"0, " * len(values))
    text[::3] = values.translate(_DIGITS)
    return f"[{text[:-2].decode()}]"


def _values(group_of: Sequence[int]) -> bytes | tuple[int, ...]:
    """The values of ``group_of``, ints as :func:`check_scores` ensures: as bytes if they fit."""
    if type(group_of) is bytes:
        return group_of
    values = tuple(group_of)
    return bytes(values) if max(values, default=0) < 256 else values


class ScoreCache:
    """Append-only persistent cache of per-mention scores.

    One record per mention holds one score per surface of its
    :class:`TypeCandidates`, in order, under a key (:meth:`key`): a SHA-256
    of the scorer's tag, the premise, the frame and a SHA-256 of the whole
    surface list, so a mention ranked by another scorer or state, or against
    another vocabulary or label order, misses in full. Records of a file
    written before keys took the list's digest are loaded and checked, but
    never hit: their mentions are scored and appended again. A record put as
    :class:`ScoreGroups` that pass :func:`check_scores` as they are is held
    as groups, its defaults and exceptions copied and its ``group_of`` and
    ``members`` kept by reference, and written sparse, as JSONL:

    - ``{"g": n, "of": [...]}``, a group line, the first time the file meets
      a ``group_of``'s values, numbered by the group lines before it; group
      lines read from the file count as met;
    - ``{"k": key, "g": n, "d": [...], "i": [...], "x": [...]}``: the record
      over group line n, its defaults up to the last group with members, and
      its exceptions by ascending position and score.

    Groups naming over :data:`_SPARE_GROUPS` more groups than they have
    labels, and any other record, are ``{"k": key, "s": [score, ...]}``,
    byte for byte its ``json.dumps``, and held as an array of doubles; so is
    such a line in a file of an earlier version, which is loaded alike. A grouped line is
    loaded as groups over its group line's ``group_of`` and members, built
    once per group line as read-only arrays. Every record's scores are
    checked by :func:`check_scores` as it is put or loaded. Versions before
    group lines refuse a file holding one, on its first group line, and
    records of the earlier per-pair format are refused.
    ``len`` counts the scores held, one per surface.

    :meth:`put` appends one record with one flush, so a crash loses at most
    the mention in flight and may leave a torn final line. On load an
    unparseable final line without a newline is cut off the file; any other
    bad line, such as a record naming no group line before it, raises
    ``CacheError`` naming ``path:line``.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[str, array.array | ScoreGroups] = {}
        # The number of each group line's values, those of the file's first
        # group line for values written twice, and how many lines there are.
        self._numbers: dict[bytes | tuple[int, ...], int] = {}
        self._group_lines = 0
        # The surface list keyed last, as a tuple, and its digest, swapped as
        # one pair so a reader never sees one list's digest beside another.
        self._surfaces: tuple[tuple[str, ...] | None, str] = (None, "")
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
        groups: list[tuple] = []
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
                    if "k" not in record and "g" in record:
                        groups.append(_group_line(record, len(groups), where))
                        self._numbers.setdefault(_values(groups[-1][0]), len(groups) - 1)
                    elif "k" not in record and "v" in record:
                        raise CacheError(f"{where}: bad cache record: a per-pair record of an "
                                         "earlier cache format; start a new cache file")
                    else:
                        key = record.get("k")
                        scores = (_grouped_record(record, groups, where) if "g" in record
                                  else record.get("s"))
                        checked = _checked_record(key, scores, where)
                        self._entries[key] = (checked if type(checked) is ScoreGroups
                                              else array.array("d", checked))
                offset += len(raw)
                last_line = raw
        if torn:
            os.truncate(self.path, offset)
        self._group_lines = len(groups)
        return last_line

    def key(self, tag: str, candidates: TypeCandidates) -> str:
        """The record key of ``candidates`` scored by the scorer named ``tag``.

        It is the SHA-256, in lowercase hex, of the JSON text of the tag, the
        premise, the head, the tail and the surface list's digest: the
        SHA-256, in lowercase hex, of the list's JSON text. A JSON array
        spells each string whole, so two inputs never share a text. Only the
        short text is hashed per mention; the list is encoded and hashed
        only when it differs from the one keyed last: that one is known by
        identity, or failing that by its contents, compared as a tuple.
        """
        last, digest = self._surfaces
        surfaces = candidates.surfaces
        if surfaces is not last:
            surfaces = tuple(surfaces)
            if surfaces != last:
                digest = hashlib.sha256(json.dumps(surfaces).encode()).hexdigest()
            self._surfaces = (surfaces, digest)
        text = json.dumps([tag, candidates.premise, candidates.head, candidates.tail, digest])
        return hashlib.sha256(text.encode()).hexdigest()

    def get(self, key: str, size: int) -> CheckedScores | ScoreGroups | None:
        """The scores recorded under ``key``, else None.

        A record held as groups, put so or loaded from a grouped line, is
        served as fresh :class:`ScoreGroups`, with an ``exceptions`` dict of
        their own; one held as an array of doubles as a fresh
        :class:`CheckedScores`. A record holding other than ``size`` scores
        raises ``CacheError``.
        """
        record = self._entries.get(key)
        if record is None:
            return None
        if len(record) != size:
            raise CacheError(
                f"{self.path}: record {key} holds {len(record)} scores for {size} surfaces")
        if type(record) is ScoreGroups:
            return ScoreGroups(record.defaults, record.group_of, record.members,
                               dict(record.exceptions))
        return CheckedScores(record)

    def put(self, key: str, scores: "list[float] | ScoreGroups") -> None:
        """Record a mention's scores under ``key``, appending its lines with one flush.

        A key already recorded is left as it is. A bad key, scores that
        :func:`check_scores` refuses, or a closed cache raise ``CacheError``
        naming the path. The lines are written before the record is kept, so
        nothing is recorded that the file lacks. :class:`ScoreGroups` that
        pass as they are are recorded as groups, copying only their defaults
        and exceptions, and written as a grouped line, after a group line
        when the file has none for their ``group_of``'s values; groups naming
        over :data:`_SPARE_GROUPS` more groups than they have labels, and
        other scores, are held as doubles, and their line is
        ``json.dumps({"k": key, "s": scores})``.
        """
        checked = _checked_record(key, scores, str(self.path))
        if key in self._entries:
            return
        if self._handle.closed:
            raise CacheError(f"{self.path}: cannot append to a closed cache")
        count = _named_groups(checked) if type(checked) is ScoreGroups else None
        if count is not None and count > len(checked.group_of) + _SPARE_GROUPS:
            checked, count = CheckedScores(checked), None
        new_values = None
        if count is None:
            record, text = array.array("d", checked), json.dumps({"k": key, "s": checked})
        else:
            record = ScoreGroups(tuple(checked.defaults), checked.group_of, checked.members,
                                 dict(checked.exceptions))
            values = _values(record.group_of)
            number = self._numbers.get(values, self._group_lines)
            text = ""
            if number == self._group_lines:
                new_values = values
                text = f'{{"g": {number}, "of": {_int_list_json(values)}}}\n'
            positions = sorted(record.exceptions)
            text += json.dumps({"k": key, "g": number, "d": list(record.defaults[:count]),
                                "i": positions, "x": list(map(record.exceptions.get, positions))})
        self._handle.write(text + "\n")
        self._handle.flush()
        self._entries[key] = record
        if new_values is not None:
            self._numbers[new_values] = self._group_lines
            self._group_lines += 1

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
    mention under the wrapped scorer's ``cache_tag``: a cached mention is
    served whole, any other is scored whole by the wrapped scorer's
    ``score_candidates``, checked by :func:`check_scores`, recorded, and
    returned as checked. :class:`ScoreGroups` that pass that check are
    recorded and served as groups, also from a reopened cache file, so
    ranking builds runs from a cold mention and a warm one alike; any other
    reply is recorded as an array
    of doubles, a hit on it served as a fresh :class:`CheckedScores`. A
    reply with the wrong number of scores, or a score failing
    :func:`unit_score`, raises :class:`ValidationError` before anything is
    written. ``score`` and ``score_batch`` pass straight through to the
    wrapped scorer, uncached; ranking never calls them.
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

    def score_candidates(self, candidates: TypeCandidates) -> CheckedScores | ScoreGroups:
        inner, labels = self.inner, candidates.labels
        key = self.cache.key(inner.cache_tag, candidates)
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
