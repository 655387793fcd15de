"""Per-layer tracing from outside the package.

The tracer replaces module-level names (``entail_typing.inference.build_type_pair``
and the like) and scorer methods on single instances with wrappers that
time each call. Callers inside the package resolve those names at call
time, so they reach the wrappers without any change to the package.

Every call opens a frame on a stack. When it ends, its duration is added to
its parent frame's child time, so each name's *self* time is its own
duration minus the time spent in traced calls beneath it. Calls made once
per pair (rendering, cache lookups, negative draws) are only summed; all
others are also kept as spans ``(id, parent_id, name, start, end, job)`` in
memory and written out by :meth:`Tracer.dump` when the run ends.
"""

import contextlib
import json
import os
import time
from collections import Counter, defaultdict

# Wrapped names whose calls are summed but not kept as spans.
PER_PAIR = frozenset(
    {"templates.render", "scoring.cache_get", "scoring.cache_put",
     "labelspace.sample", "labelspace.induce"}
)

_ABSENT = object()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.job = ""
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, name, start, child_s = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][4] += duration
        if name not in PER_PAIR:
            self.spans.append((span_id, parent, name, start, end, self.job))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, owner, attr: str, name: str, on_result=None, on_error=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper until :meth:`unwrap_all`.

        ``on_result(args, result)`` and ``on_error(exc)`` update counters;
        they run after the frame closes, so their cost is not charged to
        the wrapped call.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                self._exit(frame)
                if on_error is not None:
                    on_error(exc)
                raise
            self._exit(frame)
            if on_result is not None:
                on_result(args, result)
            return result

        self._patched.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        """Put back every replaced name, newest first."""
        while self._patched:
            owner, attr, previous = self._patched.pop()
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def install(self, et) -> None:
        """Wrap the module-level names that the benchmark and the package call."""
        from entail_typing import _util, inference, training

        count = self.count
        self.wrap(et, "load_ufet_jsonl", "corpus.load",
                  on_result=lambda a, r: count("corpus.instances", len(r)))
        self.wrap(et, "load_vocabulary", "labelspace.vocab_build")
        for attr in ("sample_negative_type", "sample_negative_ancestor"):
            self.wrap(training, attr, "labelspace.sample",
                      on_result=lambda a, r: count("labelspace.neg_samples"))
        self.wrap(training, "induce_dependency_pairs", "labelspace.induce",
                  on_result=lambda a, r: count("labelspace.dependency_pairs", len(r)))

        def render_failed(exc):
            if isinstance(exc, et.RenderingError):
                count("templates.render_failures")

        for owner, attr in ((inference, "build_type_pair"), (training, "build_type_pair"),
                            (training, "build_dependency_pair")):
            self.wrap(owner, attr, "templates.render", on_error=render_failed,
                      on_result=lambda a, r: count("templates.pairs_rendered"))
        for owner in (et, inference):
            self.wrap(owner, "rank_all_candidates", "inference.rank",
                      on_result=lambda a, r: count("inference.ranked_entries", len(r)))
            self.wrap(owner, "predict", "inference.predict")
        self.wrap(et, "tune_threshold", "inference.tune")
        self.wrap(et, "train", "training.train")
        self.wrap(training, "build_examples_for_instance", "training.build_examples",
                  on_result=lambda a, r: count("training.examples_built", len(r)))
        self.wrap(training, "predict_dataset", "training.dev_eval")
        for owner, attr in ((et, "evaluate"), (inference, "loose_macro"),
                            (training, "loose_macro")):
            self.wrap(owner, attr, "evaluation.evaluate")
        self.wrap(_util, "atomic_write_jsonl", "cli.write",
                  on_result=lambda a, r: count("cli.bytes_written", os.path.getsize(a[0])))

    def trace_scorer(self, scorer, et) -> None:
        """Wrap one scorer instance: cache, inner scorer, transport, training ops."""
        count = self.count
        inner = scorer
        if isinstance(scorer, et.CachedScorer):
            self.wrap(scorer, "score_batch", "scoring.cache_self")
            self.wrap(scorer.cache, "get", "scoring.cache_get", on_result=lambda a, r: count(
                "scoring.cache_misses" if r is None else "scoring.cache_hits"))
            self.wrap(scorer.cache, "put", "scoring.cache_put")
            inner = scorer.inner
        self.wrap(inner, "score_batch", "scoring.score",
                  on_result=lambda a, r: count("scoring.pairs_scored", len(r)))
        if isinstance(inner, et.ExternalScorer):

            def trip(args, result):
                requests = args[0]
                if any("op" in r for r in requests):
                    count("scoring.control_round_trips")
                else:
                    count("scoring.score_round_trips")
                    count("scoring.pairs_sent", len(requests))

            self.wrap(inner.endpoint, "round_trip", "scoring.round_trip", on_result=trip)
        if isinstance(inner, et.TrainableScorer):
            self.wrap(inner, "accumulate_ranking_loss", "training.accumulate")
            self.wrap(inner, "apply_update", "training.update")

    def layer_metrics(self, setups: int, jobs: int) -> dict[str, float]:
        """Per-layer metrics: set-up names per set-up, the rest per job."""
        def per_setup(value):
            return value / setups if setups else 0.0

        def per_job(value):
            return value / jobs if jobs else 0.0

        s, c, n = self.self_s, self.counts, self.calls
        lookups = c["scoring.cache_hits"] + c["scoring.cache_misses"]
        score_trips = c["scoring.score_round_trips"]
        return {
            "corpus.load_s": per_setup(s["corpus.load"]),
            "corpus.instances": per_setup(c["corpus.instances"]),
            "labelspace.vocab_build_s": per_setup(s["labelspace.vocab_build"]),
            "labelspace.sample_s": per_job(s["labelspace.sample"]),
            "labelspace.neg_samples": per_job(c["labelspace.neg_samples"]),
            "labelspace.induce_s": per_job(s["labelspace.induce"]),
            "labelspace.dependency_pairs": per_job(c["labelspace.dependency_pairs"]),
            "templates.render_s": per_job(s["templates.render"]),
            "templates.pairs_rendered": per_job(c["templates.pairs_rendered"]),
            "templates.render_failures": per_job(c["templates.render_failures"]),
            "scoring.score_s": per_job(s["scoring.score"]),
            "scoring.pairs_scored": per_job(c["scoring.pairs_scored"]),
            "scoring.cache_self_s": per_job(s["scoring.cache_self"]),
            "scoring.cache_get_s": per_job(s["scoring.cache_get"]),
            "scoring.cache_put_s": per_job(s["scoring.cache_put"]),
            "scoring.cache_hits": per_job(c["scoring.cache_hits"]),
            "scoring.cache_misses": per_job(c["scoring.cache_misses"]),
            "scoring.cache_hit_ratio": c["scoring.cache_hits"] / lookups if lookups else 0.0,
            "scoring.cache_file_bytes": per_job(c["scoring.cache_file_bytes"]),
            "scoring.round_trips": per_job(n["scoring.round_trip"]),
            "scoring.control_round_trips": per_job(c["scoring.control_round_trips"]),
            "scoring.round_trip_s": per_job(s["scoring.round_trip"]),
            "scoring.pairs_per_round_trip": c["scoring.pairs_sent"] / score_trips if score_trips else 0.0,
            "scoring.endpoint_start_s": per_setup(self.total_s["scoring.endpoint_start"]),
            "inference.rank_self_s": per_job(s["inference.rank"]),
            "inference.predict_s": per_job(s["inference.predict"]),
            "inference.tune_self_s": per_job(s["inference.tune"]),
            "inference.ranked_entries": per_job(c["inference.ranked_entries"]),
            "inference.chosen_per_mention": (
                c["inference.chosen"] / c["inference.predictions"] if c["inference.predictions"] else 0.0),
            "inference.fallbacks": per_job(c["inference.fallbacks"]),
            "training.train_self_s": per_job(s["training.train"]),
            "training.examples_built": per_job(c["training.examples_built"]),
            "training.build_examples_s": per_job(s["training.build_examples"]),
            "training.accumulate_calls": per_job(n["training.accumulate"]),
            "training.accumulate_s": per_job(s["training.accumulate"]),
            "training.update_s": per_job(s["training.update"]),
            "training.dev_eval_s": per_job(self.total_s["training.dev_eval"]),
            "evaluation.evaluate_s": per_job(s["evaluation.evaluate"]),
            "cli.write_s": per_job(s["cli.write"]),
            "cli.bytes_written": per_job(c["cli.bytes_written"]),
        }

    def dump(self, path, meta: dict) -> None:
        """Write the spans and the per-name totals as one JSON document."""
        doc = dict(meta)
        doc["span_fields"] = ["id", "parent_id", "name", "start_s", "end_s", "job"]
        doc["spans"] = self.spans
        doc["names"] = {
            name: {
                "calls": self.calls[name],
                "self_s": self.self_s[name],
                "total_s": self.total_s[name],
            }
            for name in sorted(self.calls)
        }
        doc["counts"] = dict(sorted(self.counts.items()))
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
