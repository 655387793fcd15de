"""Standalone scorer endpoint for exercising the JSONL wire protocol.

Started as a subprocess by the scoring tests. Reads one JSON request per
stdin line and answers one JSON response per stdout line. Scores are a
deterministic hash of the pair text, so runs are reproducible without any
model. Both score request kinds are answered: a pair request
{id, premise, hypothesis} with {id, entailment}, and a per-mention request
that adds {head, tail, surfaces} with {id, entailments}, one score per
surface, each exactly the pair score of ``head + surface + tail``. The
first argv selects a behavior:

  ok          honest endpoint (default)
  pairs-only  honest, but speaks pairs only: a per-mention request is
              answered as the pair request for its first surface
  short       answers the first request, then exits
  bad-id      answers with a wrong id
  range       returns an entailment score above 1
  non-numeric returns a string where the score should be
  trainable   honest endpoint plus accumulate/update/snapshot/restore ops
  bad-update  trainable, but every update is answered with an error
  bad-loss    trainable, but accumulate answers with a loss that is not a
              finite number, cycling through BAD_LOSSES

bad-id, range and non-numeric spoil per-mention replies too: a wrong id,
or the bad value as the first score.
"""

import hashlib
import json
import sys

MODE = sys.argv[1] if len(sys.argv) > 1 else "ok"
LR = 0.1
BAD_LOSSES = ("high", True, float("nan"), float("inf"), 10**400)

adjustments = {}
pending = {}
snapshots = {}
version = 0
answered = 0
accumulated = 0


def base_score(premise, hypothesis):
    digest = hashlib.sha256((premise + "\x1f" + hypothesis).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def score(premise, hypothesis):
    key = (premise, hypothesis)
    value = base_score(premise, hypothesis) + adjustments.get(key, 0.0)
    return min(1.0, max(0.0, value))


def respond(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def handle_control(request):
    global version, accumulated
    op = request["op"]
    if op == "accumulate":
        margin = request["margin"]
        weight = request.get("weight", 1.0)
        pos = request["positive"]
        pos_key = (pos["premise"], pos["hypothesis"])
        pos_score = score(*pos_key)
        total = 0.0
        for neg in request["negatives"]:
            neg_key = (neg["premise"], neg["hypothesis"])
            violation = score(*neg_key) - pos_score + margin
            if violation > 0:
                total += violation
                pending[pos_key] = pending.get(pos_key, 0.0) + LR * weight
                pending[neg_key] = pending.get(neg_key, 0.0) - LR * weight
        n = len(request["negatives"])
        loss = total / n if n else 0.0
        if MODE == "bad-loss":
            loss = BAD_LOSSES[accumulated % len(BAD_LOSSES)]
            accumulated += 1
        respond({"loss": loss})
    elif op == "update" and MODE == "bad-update":
        respond({"error": "update rejected"})
    elif op == "update":
        for key, delta in pending.items():
            adjustments[key] = adjustments.get(key, 0.0) + delta
        pending.clear()
        version += 1
        respond({"ok": True, "version": version})
    elif op == "snapshot":
        tag = f"s{len(snapshots)}"
        snapshots[tag] = (version, dict(adjustments))
        respond({"tag": tag})
    elif op == "restore":
        version, saved = snapshots[request["tag"]]
        adjustments.clear()
        adjustments.update(saved)
        pending.clear()
        respond({"ok": True})
    else:
        respond({"error": f"unknown op {op!r}"})


def handle_score(request):
    global answered
    premise = request["premise"]
    per_mention = "surfaces" in request and MODE != "pairs-only"
    if per_mention:
        head, tail = request["head"], request["tail"]
        values = [score(premise, head + s + tail) for s in request["surfaces"]]
    else:
        values = [score(premise, request["hypothesis"])]
    response_id = request["id"]
    if MODE == "bad-id":
        response_id = "bogus"
    if MODE == "range":
        values[0] = 1.2
    if MODE == "non-numeric":
        values[0] = "high"
    reply = {"entailments": values} if per_mention else {"entailment": values[0]}
    respond({"id": response_id, **reply})
    answered += 1
    if MODE == "short" and answered >= 1:
        sys.exit(0)


for line in sys.stdin:
    line = line.strip()
    if not line:
        continue
    request = json.loads(line)
    if "op" in request:
        handle_control(request)
    else:
        handle_score(request)
