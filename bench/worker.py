"""Run one benchmark workload in a fresh process and stream its events.

Started by ``bench/run.py``; not meant to be run by hand. The worker runs
jobs closed-loop, one mention at a time, until ``--seconds`` have passed
and enough mentions were timed, and sets the workload up afresh a few
times before each job. It
appends one JSON event per line to ``--events`` and flushes each, so the
parent can watch for stalls and still read what was done if it has to kill
the worker. Between timed steps it takes host-speed probes (``speed.py``),
by which the parent scales the times.

With ``--trace 1`` every second set-up and every second job runs with the
tracer installed; the others stay untraced, and the ratio of the two gives
the tracing overhead.
"""

import argparse
import contextlib
import gc
import json
import random
import resource
import shlex
import statistics
import sys
import time
from pathlib import Path

import checks
import speed
from generate import BLOCKS
from tracer import Tracer

# Set-ups run in bursts before every job rather than all at the start, so
# their median samples the whole run and not one moment of the host's speed.
SETUPS_PER_JOB = 3
TOPK = 10
UFET_THRESHOLD = 0.8  # at 0.75 a three-word mention clears it with no label word present
FINE_THRESHOLD = 0.9
FINE_EPOCHS = 3
# A run goes on past its time until this many mentions are timed, so that the
# tail percentile always rests on the same number of samples beyond it.
MIN_MENTIONS = {"ufet_predict": 100, "ufet_tune_cache": 12, "fine_train_external": 100}
MAX_OVERRUN_S = 60.0
# Host-speed probes (speed.py) run between timed steps at least this often,
# and always right before and after each job and each burst of set-ups.
PROBE_EVERY_S = 0.25


class Events:
    def __init__(self, path: Path):
        self._file = open(path, "a", encoding="utf-8")

    def emit(self, kind: str, **fields) -> None:
        fields["e"] = kind
        self._file.write(json.dumps(fields) + "\n")
        self._file.flush()

    def close(self) -> None:
        self._file.close()


def _timed(fn, *args):
    """Call ``fn``; return its result and its span ``[start, end]`` on ``perf_counter``."""
    start = time.perf_counter()
    result = fn(*args)
    return result, [start, time.perf_counter()]


class Workload:
    """Shared job machinery; subclasses define set-up and the job itself."""

    def __init__(self, et, oracles, inputs: Path, seed: int, events: Events, root: Path):
        self.et = et
        self.oracles = oracles
        self.inputs = inputs
        self.seed = seed
        self.events = events
        self.root = root
        self.tracer: Tracer | None = None
        self.jobs = 0
        self.mentions = 0
        self.last_probe = float("-inf")

    def checkpoint(self, force: bool = False) -> None:
        """Take a host-speed probe if one is due, between timed steps only."""
        if force or time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
            start = time.perf_counter()
            ms = speed.probe()
            self.last_probe = time.perf_counter()
            self.events.emit("speed", ms=ms, t=(start + self.last_probe) / 2.0)

    def path(self, stem: str) -> Path:
        return next(self.inputs.glob(stem + ".*"))

    def problems(self, what: str, problems: list[str]) -> None:
        self.events.emit("check", what=what, ok=not problems, detail=problems[:3])

    def predict_pass(self, instances, vocab, scorer, config, dump_name: str):
        """Rank and threshold each mention, then write the top-k dump and evaluate.

        Returns the rankings, predictions, dump records, report, the pass
        time, which covers everything a prediction run does after set-up, and
        the span the pass ran in.
        """
        et = self.et
        rankings, preds = [], []
        pass_s = 0.0
        first = time.perf_counter()
        for inst in instances:
            start = time.perf_counter()
            ranking = et.rank_all_candidates(inst, vocab, scorer, config.template)
            pred = et.predict(ranking, config, instance_id=inst.id)
            end = time.perf_counter()
            pass_s += end - start
            self.events.emit("mention", ms=(end - start) * 1000.0, pairs=len(ranking),
                             traced=self.tracer is not None, span=[start, end], job=self.jobs)
            self.checkpoint()
            rankings.append(ranking)
            preds.append(pred)
        self.mentions += len(instances)
        golds = {inst.id: set(inst.gold_labels) for inst in instances}
        start = time.perf_counter()
        records = [et.prediction_to_record(p, TOPK) for p in preds]
        et._util.atomic_write_jsonl(self.inputs.parent / dump_name, records)
        report = et.evaluate(preds, golds)
        end = time.perf_counter()
        pass_s += end - start
        if self.tracer is not None:
            for ranking, pred in zip(rankings, preds):
                self.tracer.count("inference.chosen", len(pred.chosen))
                self.tracer.count("inference.predictions")
                self.tracer.count("inference.fallbacks", ranking[0].score < config.threshold)
        return rankings, preds, records, report, pass_s, [first, end]

    def check_pass(self, instances, rankings, preds, report, threshold) -> list[dict]:
        """Oracle checks common to every prediction pass; returns score maps."""
        score_maps = []
        problems = []
        for ranking, pred in zip(rankings, preds):
            scores = {s.label.raw: s.score for s in ranking}
            score_maps.append(scores)
            top = [s.label.raw for s in ranking[:TOPK]]
            problems += checks.check_ranking(self.oracles, scores, top, pred.chosen, threshold)
        self.problems("ranking", problems)
        self.problems("evaluation", checks.check_report(
            self.oracles, report, [set(p.chosen) for p in preds],
            [set(i.gold_labels) for i in instances]))
        return score_maps

    def sample_index(self, n: int) -> int:
        """Seeded choice of the mention whose scores get the full oracle check."""
        return random.Random(self.seed * 1_000_003 + self.jobs).randrange(n)


class UfetPredict(Workload):
    """UFET-scale prediction with the overlap scorer and no cache."""

    def setup(self):
        et = self.et
        test = et.load_ufet_jsonl(self.path("ufet_test"), "test")
        vocab = et.load_vocabulary(self.path("ufet_vocab"), self.path("ufet_tiers"))
        return {"test": test, "vocab": vocab, "scorer": et.OverlapScorer()}

    def close(self, state) -> None:
        pass

    def job(self, state) -> dict:
        et = self.et
        instances = state["test"].instances
        size = BLOCKS["ufet_test"]
        batch = [instances[(self.jobs * size + i) % len(instances)] for i in range(size)]
        config = et.PredictionConfig(threshold=UFET_THRESHOLD, template=et.TemplateKind.TAXONOMIC)
        if self.tracer is not None:
            self.tracer.trace_scorer(state["scorer"], et)
        rankings, preds, records, report, pass_s, span = self.predict_pass(
            batch, state["vocab"], state["scorer"], config, "predictions.jsonl")
        i = self.sample_index(len(batch)) if self.jobs % 4 == 0 else None

        def after():
            score_maps = self.check_pass(batch, rankings, preds, report, UFET_THRESHOLD)
            if i is not None:
                self.problems("overlap", checks.check_overlap_scores(
                    self.oracles, batch[i], score_maps[i], "taxonomic"))

        return {"job_s": pass_s, "pass_s": pass_s, "job_span": span, "pass_span": span,
                "pairs": sum(len(r) for r in rankings),
                "outputs": [records, et.report_to_json(report)], "after": after}


class UfetTuneCache(Workload):
    """A cold cache fill over a dev slice, then threshold tuning on the warm cache.

    Job ``j`` takes the ``j``-th slice of the dev split, so a run sees several
    slices and its figures depend less on any one mention.
    """

    def _fresh_cache(self, name: str) -> Path:
        path = self.inputs.parent / name
        if path.exists():
            path.unlink()
        return path

    def setup(self):
        et = self.et
        dev = et.load_ufet_jsonl(self.path("ufet_dev"), "dev")
        vocab = et.load_vocabulary(self.path("ufet_vocab"), self.path("ufet_tiers"))
        cache = et.ScoreCache(self._fresh_cache("setup-cache.jsonl"))
        return {"dev": dev, "vocab": vocab, "scorer": et.CachedScorer(et.OverlapScorer(), cache)}

    def close(self, state) -> None:
        state["scorer"].cache.close()

    def job(self, state) -> dict:
        et = self.et
        size = BLOCKS["ufet_dev"]
        start = self.jobs * size % len(state["dev"])
        dev = et.Dataset(name="dev", split="dev",
                         instances=state["dev"].instances[start:start + size])
        vocab = state["vocab"]
        template = et.TemplateKind.TAXONOMIC
        cache_path = self._fresh_cache("cache.jsonl")
        cache = et.ScoreCache(cache_path)
        scorer = et.CachedScorer(et.OverlapScorer(), cache)
        try:
            if self.tracer is not None:
                self.tracer.trace_scorer(scorer, et)
            config = et.PredictionConfig(threshold=UFET_THRESHOLD, template=template)
            rankings, preds, records, report, fill_s, fill_span = self.predict_pass(
                dev.instances, vocab, scorer, config, "fill_predictions.jsonl")
            filled = len(cache)
            self.checkpoint(force=True)
            threshold, tune_span = _timed(et.tune_threshold, dev, vocab, scorer, template)
            grown = len(cache) - filled
        except BaseException:
            cache.close()
            raise
        if self.tracer is not None:
            self.tracer.count("scoring.cache_file_bytes", cache_path.stat().st_size)
        pairs = sum(len(r) for r in rankings)
        i = self.sample_index(len(dev))

        def after():
            try:
                warm = et.rank_all_candidates(dev.instances[i], vocab, scorer, template)
            finally:
                cache.close()
            score_maps = self.check_pass(dev.instances, rankings, preds, report, UFET_THRESHOLD)
            self.problems("cache", [] if filled == pairs and grown == 0 else [
                f"cache holds {filled} entries after {pairs} cold pairs, grew by {grown} in tuning"])
            self.problems("warm", checks.check_same_scores(
                score_maps[i], {s.label.raw: s.score for s in warm}))
            self.problems("tune", checks.check_tune(
                self.oracles, threshold, score_maps, [set(x.gold_labels) for x in dev],
                et.DEFAULT_GRID))
            self.problems("overlap", checks.check_overlap_scores(
                self.oracles, dev.instances[i], score_maps[i], "taxonomic"))

        return {"job_s": tune_span[1] - tune_span[0], "pass_s": fill_s, "job_span": tune_span,
                "pass_span": fill_span, "pairs": pairs,
                "outputs": [records, threshold], "after": after}


class FineTrainExternal(Workload):
    """Training through the external stub endpoint, then test prediction through it."""

    def scorer(self):
        """A fresh trainable endpoint, started by one score request."""
        et = self.et
        stub = self.root / "tests" / "external_stub.py"
        spec = "external-trainable:" + shlex.join([sys.executable, str(stub), "trainable"])
        scorer = et.scorer_from_spec(spec)
        warm_up = et.build_type_pair(self.probe, et.parse_label("/warm/up"), et.TemplateKind.CONTEXTUAL)
        scorer.score_batch([warm_up])
        return scorer

    def setup(self):
        et = self.et
        splits = {s: et.load_ufet_jsonl(self.path(f"fine_{s}"), s) for s in ("train", "dev", "test")}
        vocab = et.load_vocabulary(self.path("fine_vocab"))
        self.probe = splits["test"].instances[0]
        traced = self.tracer is not None
        with self.tracer.span("scoring.endpoint_start") if traced else contextlib.nullcontext():
            scorer = self.scorer()
        return dict(splits, vocab=vocab, scorer=scorer)

    def close(self, state) -> None:
        state["scorer"].close()

    def job(self, state) -> dict:
        et = self.et
        template = et.TemplateKind.CONTEXTUAL
        config = et.PredictionConfig(threshold=FINE_THRESHOLD, template=template)
        training = et.TrainingConfig(max_epochs=FINE_EPOCHS, eval_every=1, template=template,
                                     seed=self.seed)
        scorer = self.scorer()
        try:
            if self.tracer is not None:
                self.tracer.trace_scorer(scorer, et)
            self.checkpoint(force=True)
            (best, log), train_span = _timed(et.train, state["train"], state["dev"],
                                             state["vocab"], scorer, training, config)
            self.checkpoint(force=True)
            test = state["test"].instances
            rankings, preds, records, report, pass_s, pass_span = self.predict_pass(
                test, state["vocab"], scorer, config, "test_predictions.jsonl")
        finally:
            scorer.close()
        i = self.sample_index(len(test))

        def after():
            score_maps = self.check_pass(test, rankings, preds, report, FINE_THRESHOLD)
            self.problems("train_log", [] if len(log) == FINE_EPOCHS else [
                f"{len(log)} dev evaluations logged for {FINE_EPOCHS} epochs"])
            self.problems("transport", checks.check_stub_scores(test[i], score_maps[i], "contextual"))

        return {"job_s": (train_span[1] - train_span[0]) / FINE_EPOCHS, "pass_s": pass_s,
                "job_span": train_span, "pass_span": pass_span,
                "pairs": sum(len(r) for r in rankings), "outputs": [best, log, records],
                "after": after}


WORKLOADS = {
    "ufet_predict": UfetPredict,
    "ufet_tune_cache": UfetTuneCache,
    "fine_train_external": FineTrainExternal,
}


def run(workload: Workload, name: str, seconds: float, trace: bool, trace_path: Path | None):
    events = workload.events
    tracer = Tracer() if trace else None
    setups = traced_setups = traced_jobs = 0
    per_pair = {False: [], True: []}

    def use_tracer(on: bool, label: str):
        workload.tracer = tracer if on else None
        if on:
            tracer.job = label
            tracer.install(workload.et)

    state = None

    def setup_burst():
        """Set up SETUPS_PER_JOB times, keeping the last state."""
        nonlocal state, setups, traced_setups
        for _ in range(SETUPS_PER_JOB):
            # Each set-up starts from the same heap: the previous state is
            # closed and dropped, and its garbage collected, before timing.
            if state is not None:
                workload.close(state)
                state = None
            gc.collect()
            on = trace and setups % 2 == 1
            use_tracer(on, f"setup-{setups}")
            try:
                state, span = _timed(workload.setup)
            finally:
                if on:
                    tracer.unwrap_all()
            setups += 1
            traced_setups += on
            events.emit("setup", s=span[1] - span[0], traced=on, span=span)
            workload.checkpoint()

    try:
        start = time.perf_counter()
        workload.checkpoint(force=True)
        while True:
            setup_burst()
            workload.checkpoint(force=True)
            on = trace and workload.jobs % 2 == 1
            use_tracer(on, f"job-{workload.jobs}")
            try:
                job_start = time.perf_counter()
                result = workload.job(state)
                wall = time.perf_counter() - job_start
            finally:
                if on:
                    tracer.unwrap_all()
            outputs = result.pop("outputs")
            after = result.pop("after")
            events.emit("job", job=workload.jobs, traced=on, wall_s=wall, **result)
            workload.checkpoint(force=True)
            if workload.jobs == 0:
                events.emit("digest", value=checks.digest(outputs))
            after()
            traced_jobs += on
            per_pair[on].append(result["pass_s"] / result["pairs"])
            # The next set-ups must not run with this job's rankings alive.
            del result, outputs, after
            workload.jobs += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds + MAX_OVERRUN_S:
                break
            # Start another job only if it is expected to end within the time.
            if (elapsed + elapsed / workload.jobs > seconds
                    and workload.mentions >= MIN_MENTIONS[name]):
                break
    except Exception as exc:
        events.emit("fail", error=f"{type(exc).__name__}: {exc}")
    finally:
        workload.tracer = None
        if state is not None:
            workload.close(state)

    events.emit("rss", mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        layers = tracer.layer_metrics(traced_setups, traced_jobs)
        if per_pair[True] and per_pair[False]:
            layers["trace.overhead_frac"] = (
                statistics.median(per_pair[True]) / statistics.median(per_pair[False]) - 1.0)
        else:
            layers["trace.overhead_frac"] = 0.0
        events.emit("layers", metrics=layers)
        tracer.dump(trace_path, {"workload": name, "seed": workload.seed,
                                 "setups_traced": traced_setups, "jobs_traced": traced_jobs})
    events.emit("done")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--events", required=True, type=Path)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--root", required=True, type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.root / "src"))
    import entail_typing as et
    import entail_typing._util  # noqa: F401  (the dump writer the CLI uses)

    events = Events(args.events)
    try:
        workload = WORKLOADS[args.workload](
            et, checks.load_oracles(args.root), args.inputs, args.seed, events, args.root)
        run(workload, args.workload, args.seconds, bool(args.trace), args.trace_out)
    finally:
        events.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
