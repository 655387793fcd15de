"""Benchmark entry point: one workload, one seed, one line of JSON results.

    python3 bench/run.py --workload ufet_predict --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository. The script generates
the workload's inputs from the seed under ``.bench_out/`` at the checkout
root, runs the workload in a fresh worker process under a wall-clock
watchdog, checks the outputs against the oracles, scales the times to a
reference host speed by the probes the worker took (``speed.py``), and
prints a readable summary followed, as the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, and the spans are written to
``.bench_out/trace-<workload>-seed<seed>.json``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import generate
import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# What the benchmark needs from the program under test.
REQUIRED = ("src/entail_typing/__init__.py", "tests/oracles.py", "tests/external_stub.py")

# A whole run must end within 180 s; the watchdog kills the worker before.
RUN_LIMIT_S = 170.0
STALL_S = 60.0
# An operation that takes longer than this counts as failed.
DEADLINE_S = {"setup": 30.0, "mention": 30.0, "job": 120.0}
# mention_ms_tail is this percentile on every workload. At the fewest
# mentions a run times (worker.MIN_MENTIONS) it has at least ten samples
# beyond it, except on ufet_tune_cache, whose mentions are too slow for that.
TAIL_P = 90.0


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile."""
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]


def kill_group(proc: subprocess.Popen) -> None:
    """Kill the worker's whole process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    _wait_group_gone(proc.pid)


def _wait_group_gone(pgid: int) -> bool:
    """True if members of the group were still alive (and are now killed)."""
    leftover = False
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return leftover
        leftover = True
        os.killpg(pgid, signal.SIGKILL)
        time.sleep(0.05)
    return leftover


def watch(proc: subprocess.Popen, events_path: Path, limit_s: float) -> str | None:
    """Wait for the worker; kill it on a stall or at the limit and say why."""
    deadline = time.monotonic() + limit_s
    last_size, last_change = -1, time.monotonic()
    while True:
        try:
            proc.wait(timeout=0.25)
            return None
        except subprocess.TimeoutExpired:
            pass
        now = time.monotonic()
        size = events_path.stat().st_size if events_path.exists() else 0
        if size != last_size:
            last_size, last_change = size, now
        if now - last_change > STALL_S:
            kill_group(proc)
            return f"no progress for {STALL_S:.0f} s"
        if now > deadline:
            kill_group(proc)
            return f"still running after {limit_s:.0f} s"


def read_events(path: Path) -> list[dict]:
    if not path.exists():
        return []
    events = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a line torn by a kill; everything before it is whole
    return events


def timing_metrics(by: dict[str, list[dict]], factor) -> dict[str, float]:
    """The end-to-end times of untraced work, each time multiplied by ``factor(span)``."""
    def t(event: dict, key: str, span: str = "span") -> float:
        return event[key] * factor(event[span])

    setups = by.get("setup", [])
    mentions = [e for e in by.get("mention", []) if not e["traced"]]
    jobs = [e for e in by.get("job", []) if not e["traced"]]
    by_job = {}
    for m in mentions:
        by_job.setdefault(m["job"], []).append(m)

    def pass_s(job: dict) -> float:
        """A pass's time, scaled mention by mention and the rest by the whole pass."""
        own = by_job.get(job["job"], [])
        rest = job["pass_s"] - sum(m["ms"] for m in own) / 1000.0
        return sum(t(m, "ms") for m in own) / 1000.0 + rest * factor(job["pass_span"])

    def job_s(job: dict) -> float:
        """The job's own step, scaled by the probes over the whole job.

        A ``train`` or ``tune_threshold`` call cannot be probed inside, and
        the two probes at its ends alone swing with phases shorter than it.
        On ufet_predict the step is the prediction pass itself.
        """
        if job["job_span"] == job["pass_span"]:
            return pass_s(job)
        spans = job["job_span"] + job["pass_span"]
        return job["job_s"] * factor([min(spans), max(spans)])

    metrics = {}
    if setups:
        metrics["setup_s"] = statistics.median(t(e, "s") for e in setups)
    if jobs:
        metrics["pairs_per_s"] = sum(j["pairs"] for j in jobs) / sum(pass_s(j) for j in jobs)
        metrics["job_s"] = statistics.fmean(job_s(j) for j in jobs)
    if mentions:
        times = [t(m, "ms") for m in mentions]
        metrics["mention_ms_p50"] = statistics.median(times)
        metrics["mention_ms_tail"] = percentile(times, TAIL_P)
    return metrics


def summarize(events: list[dict], trace: bool, problem: str | None):
    """Fold worker events into (attempted, failed, metrics, notes)."""
    by = {}
    for event in events:
        by.setdefault(event["e"], []).append(event)
    ops = by.get("setup", []) + by.get("mention", []) + by.get("job", []) + by.get("check", [])
    attempted = len(ops) + len(by.get("fail", []))
    failed = len(by.get("fail", []))
    failed += sum(1 for e in by.get("check", []) if not e["ok"])
    durations = {"setup": lambda e: e["s"], "mention": lambda e: e["ms"] / 1000.0,
                 "job": lambda e: e["wall_s"]}
    for kind, duration in durations.items():
        failed += sum(1 for e in by.get(kind, []) if duration(e) > DEADLINE_S[kind])
    notes = [f"{e['what']}: {e['detail']}" for e in by.get("check", []) if not e["ok"]]
    notes += [e["error"] for e in by.get("fail", [])]
    if problem is not None or "done" not in by:
        attempted += 1
        failed += 1
        notes.append(problem or "worker ended without finishing")

    if trace:
        layers = by.get("layers", [{}])[-1]
        return attempted, failed, layers.get("metrics", {}), notes

    # Times are scaled to the reference host speed by the probes around them.
    metrics = timing_metrics(by, speed.scaler(events))
    raw = timing_metrics(by, lambda span: 1.0)
    if "rss" in by:
        metrics["peak_rss_mb"] = by["rss"][-1]["mb"]
    probes = [e["ms"] for e in by.get("speed", [])]
    mentions = sum(not e["traced"] for e in by.get("mention", []))
    notes.insert(0, f"{len(by.get('setup', []))} set-ups, {len(by.get('job', []))} jobs, "
                    f"{mentions} mentions; mention_ms_tail is their p{TAIL_P:g}, "
                    f"with {mentions * (100 - TAIL_P) / 100:.1f} samples beyond it")
    if probes:
        notes.insert(1, f"host speed: {len(probes)} probes, median {statistics.median(probes):.3f} ms "
                        f"(min {min(probes):.3f}, max {max(probes):.3f}) against "
                        f"{speed.REFERENCE_MS} ms; unscaled times: "
                        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    return attempted, failed, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(generate.SIZES), default="full",
                        help="input size; 'tiny' is for the benchmark's own smoke tests")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED + ("BENCHMARK.json",) if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: cannot run, missing from {ROOT}: {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads)}",
              file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    # A terminated run still stops its worker: SystemExit unwinds through the
    # clean-up below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out))
    try:
        inputs = work / "inputs"
        generate.generate(inputs, args.seed, args.size)
        events_path = work / "events.jsonl"
        trace_path = out / f"trace-{args.workload}-seed{args.seed}.json"
        with open(work / "worker.stderr", "w", encoding="utf-8") as stderr:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                 "--inputs", str(inputs), "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--events", str(events_path), "--trace-out", str(trace_path),
                 "--root", str(ROOT)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr,
                start_new_session=True,
            )
            try:
                problem = watch(proc, events_path, RUN_LIMIT_S - (time.monotonic() - started))
            finally:
                if proc.poll() is None:
                    kill_group(proc)
            if problem is None and _wait_group_gone(proc.pid):
                problem = "the worker left a child process running"
            if problem is None and proc.returncode != 0:
                problem = f"worker exited with code {proc.returncode}"
        events = read_events(events_path)
        attempted, failed, values, notes = summarize(events, bool(args.trace), problem)
        if problem is not None:
            err = (work / "worker.stderr").read_text(encoding="utf-8", errors="replace")
            notes.append("worker stderr tail: " + err[-2000:])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in declared}
    digest = next((e["value"] for e in events if e["e"] == "digest"), None)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed (failed_frac {failed / max(attempted, 1):.4g})")
    print(f"digest of the first job's outputs: {digest}")
    for note in notes:
        print(note)
    for name, m in metrics.items():
        value = m["value"]
        shown = "missing" if value is None else f"{value:.6g} {m['unit']}"
        print(f"  {name:32s} {shown}")
    if args.trace:
        print(f"spans: {trace_path.relative_to(ROOT)}")
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
