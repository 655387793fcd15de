"""End-to-end runs of every subcommand against small on-disk fixtures."""

import gc
import hashlib
import json
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from entail_typing import (
    TemplateKind,
    TrainingConfig,
    build_examples_for_instance,
    load_ufet_jsonl,
    load_vocabulary,
)
from entail_typing import cli
from entail_typing.cli import load_run_config, main

from conftest import _live_predictions, read_jsonl, record_live_predictions


def _record(left, mention, right, labels, **extras):
    doc = {
        "left_context_token": left,
        "mention_span": mention,
        "right_context_token": right,
        "y_str": labels,
    }
    doc.update(extras)
    return doc


TRAIN_ROWS = [
    _record([], "Jay", ["is", "a", "famous", "producer", "."], ["producer", "person"]),
    _record(["the"], "company", ["hired", "her", "."], ["company"]),
    _record([], "Ann", ["sang", "."], ["singer", "person"]),
    _record(["a"], "long", ["wait", "followed", "."], ["duration"]),
]

DEV_ROWS = [
    _record([], "Bo", ["produced", "films", "."], ["producer", "person"]),
    _record(["that"], "firm", ["grew", "."], ["company"]),
]

TEST_ROWS = [
    _record([], "Kim", ["is", "a", "producer", "."], ["producer"]),
    _record(["the"], "singer", ["arrived", "."], ["singer", "person"]),
]

VOCAB = ["company", "duration", "person", "producer", "singer"]


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


@pytest.fixture
def workdir(tmp_path):
    _write_jsonl(tmp_path / "train.jsonl", TRAIN_ROWS)
    _write_jsonl(tmp_path / "dev.jsonl", DEV_ROWS)
    _write_jsonl(tmp_path / "test.jsonl", TEST_ROWS)
    (tmp_path / "vocab.txt").write_text("".join(l + "\n" for l in VOCAB), encoding="utf-8")
    config = {
        "train_path": "train.jsonl",
        "dev_path": "dev.jsonl",
        "test_path": "test.jsonl",
        "vocab_path": "vocab.txt",
        "out_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return tmp_path


def run(workdir, command, *sets, out=None):
    argv = [command, "--config", str(workdir / "config.json")]
    for item in sets:
        argv += ["--set", item]
    if out:
        argv += ["--out", out]
    return main(argv)


class TestRender:
    def test_pair_dump_contains_taxonomic_rendering(self, workdir):
        assert run(workdir, "render") == 0
        records = list(read_jsonl(workdir / "out" / "pairs.jsonl"))
        assert {
            "premise": "Jay is a famous producer .",
            "hypothesis": "Jay is a producer.",
            "kind": "type",
            "instance_id": "train-000000",
            "label": "producer",
            "template": "taxonomic",
        } in records

    def test_render_failure_becomes_inline_record(self, workdir, capsys):
        rows = TRAIN_ROWS + [_record(["it"], "", ["rained", "."], ["duration"])]
        _write_jsonl(workdir / "train.jsonl", rows)
        assert run(workdir, "render", 'template="substitution"') == 0
        records = list(read_jsonl(workdir / "out" / "pairs.jsonl"))
        errors = [r for r in records if "error" in r]
        assert len(errors) == 1
        assert errors[0]["instance_id"] == "train-000004"
        assert errors[0]["template"] == "substitution"
        # the healthy instances still rendered
        assert any(r.get("instance_id") == "train-000000" for r in records if "error" not in r)

    def test_lone_surrogate_in_the_corpus_is_one_error_line(self, workdir, capsys):
        # json.dumps writes the lone surrogate as the escape \ud800
        rows = TRAIN_ROWS[:1] + [_record(["\ud800x"], "Bo", ["sang", "."], ["singer"])]
        _write_jsonl(workdir / "train.jsonl", rows)
        assert run(workdir, "render") == 1
        assert capsys.readouterr().err == (
            f"error: {workdir / 'train.jsonl'}:2: a \\u escape leaves a lone surrogate\n"
        )
        assert not (workdir / "out" / "pairs.jsonl").exists()

    def test_substitution_render_has_no_dependency_pairs(self, workdir):
        assert run(workdir, "render", 'template="substitution"') == 0
        records = list(read_jsonl(workdir / "out" / "pairs.jsonl"))
        assert all(r.get("kind") != "dependency" for r in records)

    def test_instance_without_gold_labels_skipped(self, workdir):
        rows = [TEST_ROWS[0], _record(["then"], "Lee", ["left", "."], []), TEST_ROWS[1]]
        _write_jsonl(workdir / "test.jsonl", rows)
        assert run(workdir, "render", 'split="test"') == 0
        records = list(read_jsonl(workdir / "out" / "pairs.jsonl"))
        assert {r["instance_id"] for r in records} == {"test-000000", "test-000002"}

    @pytest.mark.parametrize("template", ["taxonomic", "contextual", "substitution"])
    @pytest.mark.parametrize("structure", ["tiered", "ontology"])
    def test_pairs_are_the_training_positives(self, workdir, template, structure):
        if structure == "tiered":
            vocab = ["person", "organization", "sportsman", "artist", "boxer", "guitarist"]
            tiers = {"person": "general", "organization": "general", "sportsman": "fine",
                     "artist": "fine", "boxer": "ultrafine", "guitarist": "ultrafine"}
            (workdir / "tiers.tsv").write_text(
                "".join(f"{raw}\t{tier}\n" for raw, tier in tiers.items()), encoding="utf-8"
            )
            golds = [["boxer", "sportsman", "person"], ["artist", "guitarist"], ["organization"]]
            extra = ['tier_path="tiers.tsv"']
        else:
            vocab = ["/person", "/person/athlete/boxer", "/person/coach", "/person/artist/singer",
                     "/organization"]
            golds = [
                ["/person/athlete/boxer", "/person/coach"],
                ["/person/artist/singer", "/organization"],
                ["/person"],
            ]
            extra = []
        (workdir / "vocab.txt").write_text("".join(l + "\n" for l in vocab), encoding="utf-8")
        rows = [
            _record(["the"], "Ali", ["fought", "."], golds[0]),
            _record([], "Mae", ["played", "on", "."], golds[1]),
            _record(["a"], "firm", ["grew", "."], golds[2]),
        ]
        _write_jsonl(workdir / "train.jsonl", rows)
        assert run(workdir, "render", f'template="{template}"', *extra) == 0
        rendered = [
            (r["instance_id"], r["kind"], r["label"], r["premise"], r["hypothesis"])
            for r in read_jsonl(workdir / "out" / "pairs.jsonl")
        ]

        config = TrainingConfig(template=TemplateKind(template))
        vocabulary = load_vocabulary(
            workdir / "vocab.txt", workdir / "tiers.tsv" if extra else None
        )
        positives = []
        for instance in load_ufet_jsonl(workdir / "train.jsonl", "train"):
            for example in build_examples_for_instance(
                instance, vocabulary, config, random.Random(0)
            ):
                pair = example.positive
                positives.append(
                    (pair.instance_id, pair.kind.value, pair.label_raw, pair.premise,
                     pair.hypothesis)
                )
        assert rendered == positives
        kinds = {kind for _, kind, *_ in rendered}
        assert kinds == ({"type"} if template == "substitution" else {"type", "dependency"})


class TestTrain:
    def test_writes_log_and_checkpoint(self, workdir):
        code = run(
            workdir, "train", 'scorer="trainable-table"', "max_epochs=2", "eval_every=1"
        )
        assert code == 0
        log = list(read_jsonl(workdir / "out" / "train_log.jsonl"))
        assert len(log) == 2
        for record in log:
            assert {"epoch", "dev_p", "dev_r", "dev_f1", "type_loss", "dep_loss"} <= set(record)
        checkpoint = json.loads((workdir / "out" / "checkpoint.json").read_text())
        assert checkpoint["evals"] == 2
        assert checkpoint["best_checkpoint"].startswith("ckpt-")

    def test_same_seed_reruns_byte_identical(self, workdir):
        args = ("train", 'scorer="trainable-table"', "max_epochs=2", "eval_every=1")
        assert run(workdir, *args, out=str(workdir / "a")) == 0
        assert run(workdir, *args, out=str(workdir / "b")) == 0
        first = (workdir / "a" / "train_log.jsonl").read_bytes()
        second = (workdir / "b" / "train_log.jsonl").read_bytes()
        assert first == second

    def test_zero_dependency_weight_log_ignores_the_tier_file(self, workdir):
        vocab = ["person", "organization", "sportsman", "artist", "boxer", "guitarist"]
        tiers = ["general", "general", "fine", "fine", "ultrafine", "ultrafine"]
        (workdir / "vocab.txt").write_text("".join(l + "\n" for l in vocab), encoding="utf-8")
        (workdir / "tiers.tsv").write_text(
            "".join(f"{raw}\t{tier}\n" for raw, tier in zip(vocab, tiers)), encoding="utf-8"
        )
        names = ["Ali", "Mae", "Bo", "Kim", "Lee", "Ann", "Jo"]
        golds = [["boxer", "sportsman", "person"], ["artist", "guitarist"], ["organization"],
                 ["guitarist", "person"], ["sportsman"], ["boxer", "person"], ["artist"]]
        _write_jsonl(workdir / "train.jsonl", [
            _record([], name, ["was", "there", "."], gold) for name, gold in zip(names, golds)
        ])
        _write_jsonl(workdir / "dev.jsonl", [
            _record([], "Cy", ["fought", "."], ["boxer", "person"]),
            _record(["the"], "band", ["played", "."], ["organization"]),
        ])
        args = ("train", 'scorer="trainable-table"', "max_epochs=3", "eval_every=1",
                "batch_size=3")
        logs = {}
        for weight in ("0", "0.05"):
            for tier_path in ("tiers.tsv", None):
                out = workdir / f"out-{weight}-{tier_path}"
                extra = [f'tier_path="{tier_path}"'] if tier_path else []
                assert run(workdir, *args, f"dependency_weight={weight}", *extra,
                           out=str(out)) == 0
                logs[weight, tier_path] = (out / "train_log.jsonl").read_bytes()
        assert logs["0", "tiers.tsv"] == logs["0", None]
        # with a weight, the tier file's dependency examples do change the run
        assert logs["0.05", "tiers.tsv"] != logs["0.05", None]

    def test_untrainable_scorer_rejected(self, workdir, capsys):
        assert run(workdir, "train") == 1
        assert "not trainable" in capsys.readouterr().err


# A path vocabulary whose gold sets induce dependency pairs; the golden
# fixture's flat vocabulary induces none.
PIN_VOCAB = ["/person", "/person/athlete", "/person/athlete/boxer", "/person/artist",
             "/person/artist/singer", "/organization", "/organization/company", "/location",
             "/location/city"]
PIN_TRAIN = [
    _record([], "Ali", ["fought", "twice", "."], ["/person/athlete/boxer"]),
    _record(["the"], "band", ["played", "."], ["/organization", "/person/artist/singer"]),
    _record([], "Acme", ["hired", "Bo", "."], ["/organization/company"]),
    _record(["in"], "Rome", ["it", "rained", "."], ["/location/city", "/location"]),
    _record([], "Mae", ["sang", "and", "ran", "."], ["/person/artist", "/person/athlete"]),
]
PIN_DEV = [
    _record([], "Cy", ["boxed", "."], ["/person/athlete/boxer"]),
    _record(["a"], "firm", ["grew", "."], ["/organization/company"]),
]


class TestPinnedArtifacts:
    """``render`` and ``train`` bytes on a corpus with dependency pairs, pinned by SHA-256."""

    RENDER = {
        "taxonomic": "34ded9377c6e3c70949b791629c9319548aeb5056758a49189cbea3917eb29fc",
        "contextual": "db882c7b631d2ee6d5e5bc2c2819e7bfa913a4e253ae2ce7d24b28ff2563e3a9",
        "substitution": "fd8464eceab0c8a7aeac49f3c559acf902cd6111041d8bc11920ce9d61fe9792",
    }
    TRAIN_LOG = "22be9448350df19a396ac804c823339fc44401443048546553c88f5730b5971f"
    CHECKPOINT = "a600650ace2168d10392a2cbbdebe72658e7956ab29891d51c1222edce9dbbc0"

    @pytest.fixture
    def pinned(self, workdir):
        _write_jsonl(workdir / "train.jsonl", PIN_TRAIN)
        _write_jsonl(workdir / "dev.jsonl", PIN_DEV)
        (workdir / "vocab.txt").write_text("".join(l + "\n" for l in PIN_VOCAB), encoding="utf-8")
        return workdir

    @staticmethod
    def _digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("template", ["taxonomic", "contextual", "substitution"])
    def test_render_is_pinned(self, pinned, template):
        assert run(pinned, "render", f'template="{template}"') == 0
        assert self._digest(pinned / "out" / "pairs.jsonl") == self.RENDER[template]

    def test_train_is_pinned(self, pinned):
        assert run(pinned, "train", 'scorer="trainable-table"', "max_epochs=4", "eval_every=1",
                   "batch_size=3", "negatives_per_positive=2", "seed=5") == 0
        assert self._digest(pinned / "out" / "train_log.jsonl") == self.TRAIN_LOG
        assert self._digest(pinned / "out" / "checkpoint.json") == self.CHECKPOINT


class TestPredictAndEval:
    def test_predict_artifact_shape(self, workdir):
        assert run(workdir, "predict") == 0
        records = list(read_jsonl(workdir / "out" / "predictions.jsonl"))
        assert [r["instance_id"] for r in records] == ["test-000000", "test-000001"]
        for record in records:
            assert set(record) == {"instance_id", "chosen", "topk"}
            assert record["chosen"] == sorted(record["chosen"])
            assert all(set(t) == {"label", "score"} for t in record["topk"])

    def test_earlier_predictions_are_dropped(self, workdir, monkeypatch):
        """Each time a mention is ranked, no earlier mention's prediction is alive."""
        _write_jsonl(workdir / "test.jsonl", TEST_ROWS * 2)
        live, before = record_live_predictions(monkeypatch)
        assert run(workdir, "predict") == 0
        assert live == [before] * 4
        assert len(read_jsonl(workdir / "out" / "predictions.jsonl")) == 4

    def test_eval_drops_earlier_predictions(self, workdir, monkeypatch):
        """Each time eval reads a dump line, no earlier line's prediction is alive."""
        _write_jsonl(workdir / "test.jsonl", TEST_ROWS * 2)
        assert run(workdir, "predict") == 0
        read, live = cli.numbered_jsonl, []

        def counting_read(path):
            for numbered in read(path):
                live.append(_live_predictions())
                yield numbered

        monkeypatch.setattr(cli, "numbered_jsonl", counting_read)
        gc.collect()
        before = _live_predictions()
        assert run(workdir, "eval") == 0
        assert live == [before] * 4
        assert json.loads((workdir / "out" / "report.json").read_text())["n_instances"] == 4

    def test_endpoint_failure_keeps_the_earlier_dump(self, workdir, capsys):
        assert run(workdir, "predict") == 0
        out = workdir / "out"
        dump = (out / "predictions.jsonl").read_bytes()
        names = sorted(p.name for p in out.iterdir())
        assert run(workdir, "predict", "scorer=" + json.dumps(stub_spec("external", "short"))) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert (out / "predictions.jsonl").read_bytes() == dump
        assert sorted(p.name for p in out.iterdir()) == names

    def test_overlap_scorer_finds_surface_labels(self, workdir):
        assert run(workdir, "predict") == 0
        records = {r["instance_id"]: r for r in read_jsonl(workdir / "out" / "predictions.jsonl")}
        # "Kim is a producer ." entails "Kim is a producer." word for word
        assert "producer" in records["test-000000"]["chosen"]

    def test_render_errors_are_dumped_and_the_mention_falls_back(self, workdir):
        rows = [_record(["then"], "", ["left", "."], ["person"]), TEST_ROWS[0]]
        _write_jsonl(workdir / "test.jsonl", rows)
        assert run(workdir, "predict") == 0
        out = workdir / "out"
        errors = read_jsonl(out / "render_errors.jsonl")
        assert [e["label"] for e in errors] == VOCAB
        for error in errors:
            assert set(error) == {"label", "error"}
            assert "'test-000000'" in error["error"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == ["predictions.jsonl", "render_errors.jsonl"]
        # every label scores 0, so top1 takes the smallest raw label
        first = read_jsonl(out / "predictions.jsonl")[0]
        assert first["instance_id"] == "test-000000"
        assert first["chosen"] == ["company"]
        assert first["topk"] == [{"label": raw, "score": 0.0} for raw in VOCAB]

    def test_eval_reads_default_dump(self, workdir):
        assert run(workdir, "predict") == 0
        assert run(workdir, "eval") == 0
        report = json.loads((workdir / "out" / "report.json").read_text())
        assert set(report) == {
            "n_instances", "loose_macro", "micro", "strict_accuracy", "per_bucket"
        }
        assert report["n_instances"] == 2
        assert (workdir / "out" / "report.txt").read_text().startswith("metric")

    def test_eval_with_buckets(self, workdir):
        assert run(workdir, "predict") == 0
        assert run(workdir, "eval", "bucket_edges=[0,1,2]") == 0
        report = json.loads((workdir / "out" / "report.json").read_text())
        assert report["per_bucket"]
        for name in report["per_bucket"]:
            assert name.startswith("[")

    def test_eval_misalignment_exits_nonzero(self, workdir, capsys):
        stray = workdir / "stray.jsonl"
        _write_jsonl(stray, [{"instance_id": "ghost-001", "chosen": ["person"], "topk": []}])
        code = run(workdir, "eval", f'predictions_path="{stray}"')
        assert code == 1
        assert "ghost-001" in capsys.readouterr().err

    def test_missing_predictions_exits_nonzero(self, workdir, capsys):
        assert run(workdir, "eval", out=str(workdir / "fresh")) == 1
        assert "no predictions" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('{"instance_id": "test-000001", "chosen": [', "malformed JSON"),
            ('{"instance_id": "test-000001", "chosen": [], "n": ' + "7" * 5000 + "}",
             "malformed JSON"),
            ('["test-000001", ["person"]]', "expected a JSON object"),
            ('{"chosen": ["person"]}', "missing key 'instance_id'"),
            ('{"instance_id": "test-000001"}', "missing key 'chosen'"),
            ('{"instance_id": "test-000001", "chosen": "person"}',
             "chosen must be a list of strings"),
            ('{"instance_id": "test-000001", "chosen": 5}', "chosen must be a list of strings"),
            ('{"instance_id": "test-000001", "chosen": ["person", 5]}',
             "chosen must be a list of strings"),
            ('{"instance_id": ["test-000001"], "chosen": []}', "instance_id must be a string"),
        ],
        ids=["truncated", "oversized-integer", "array", "no-instance-id", "no-chosen",
             "chosen-string", "chosen-number", "chosen-mixed", "instance-id-list"],
    )
    def test_bad_prediction_line_names_path_and_line(self, workdir, capsys, bad, message):
        dump = workdir / "dump.jsonl"
        good = json.dumps({"instance_id": "test-000000", "chosen": ["producer"]})
        dump.write_text(good + "\n\n" + bad + "\n", encoding="utf-8")
        assert run(workdir, "eval", f'predictions_path="{dump}"') == 1
        assert capsys.readouterr().err.startswith(f"error: {dump}:3: {message}")


# one mention's record: a SHA-256 hex key and one score per surface
_CACHE_KEY = "0123456789abcdef" * 4
_CACHE_LINE = '{"k": "%s", "s": [0.25, 0.5]}\n' % _CACHE_KEY


class TestBadInputFiles:
    """A bad line in any input file is an ``error: path:line:`` line and exit code 1."""

    @pytest.mark.parametrize(
        "name, content, settings, line, message",
        [
            ("test.jsonl", b"\n" + json.dumps(TEST_ROWS[0]).encode() + b"\xff\n", [], 2,
             "not UTF-8"),
            ("vocab.txt", b"company\nduration\nper\xffson\n", [], 3, "not UTF-8"),
            ("tiers.tsv", b"company\tgeneral\nsinger\tfi\xffne\n", ['tier_path="tiers.tsv"'],
             2, "not UTF-8"),
            ("vocab.txt", b"company\ncity\n\nsinger\ncity\n", [], 5,
             "duplicate label 'city' in vocabulary"),
            ("vocab.txt", b"company\n/\nsinger\n", [], 2, "label '/' has no path components"),
            ("tiers.tsv", b"city\tgeneral\ncity\tgeneral\ncity\tfine\n",
             ['tier_path="tiers.tsv"'], 3, "label 'city' is general on an earlier line, not fine"),
            ("table.jsonl", b'{"default": 0.1}\n5\n', ["scorer=table:table.jsonl"], 2,
             "expected a JSON object"),
            ("table.jsonl", b'{"premise": "p", "hypothesis": "h", "score": "high"}\n',
             ["scorer=table:table.jsonl"], 1, "score must be a JSON number"),
            ("table.jsonl", b'{"premise": "p", "hypothesis": "h", "score": null}\n',
             ["scorer=table:table.jsonl"], 1, "score must be a JSON number"),
            ("table.jsonl", b'{"premise": "p", "hypothesis": "h", "score": true}\n',
             ["scorer=table:table.jsonl"], 1, "score must be a JSON number"),
            ("table.jsonl", b'{"premise": "p", "hypothesis": "h", "score": "0.5"}\n',
             ["scorer=table:table.jsonl"], 1, "score must be a JSON number"),
            ("table.jsonl", b'{"default": "x"}\n', ["scorer=table:table.jsonl"], 1,
             "default must be a JSON number"),
            ("table.jsonl", b'{"premise": "\xff", "hypothesis": "h", "score": 1}\n',
             ["scorer=table:table.jsonl"], 1, "not UTF-8"),
            ("cache.jsonl", _CACHE_LINE.replace("0.5", "9" * 401).encode(),
             ['cache_path="cache.jsonl"'], 1, "bad cache record"),
            ("cache.jsonl", (_CACHE_LINE + _CACHE_LINE.replace("0.5", "true")).encode(),
             ['cache_path="cache.jsonl"'], 2, "bad cache record"),
            ("cache.jsonl", _CACHE_LINE.replace("0.5", '"0.5"').encode(),
             ['cache_path="cache.jsonl"'], 1, "bad cache record"),
            ("cache.jsonl", _CACHE_LINE.replace("0.5", "7").encode(),
             ['cache_path="cache.jsonl"'], 1, "bad cache record: score 7.0 outside"),
            ("cache.jsonl", (_CACHE_LINE + _CACHE_LINE.replace("0.5", "-1")).encode(),
             ['cache_path="cache.jsonl"'], 2, "bad cache record: score -1.0 outside"),
            ("cache.jsonl", _CACHE_LINE.replace("0.5", "NaN").encode(),
             ['cache_path="cache.jsonl"'], 1, "bad cache record: score nan outside"),
            ("cache.jsonl", _CACHE_LINE.replace("0.5", "Infinity").encode(),
             ['cache_path="cache.jsonl"'], 1, "bad cache record: score inf outside"),
            ("cache.jsonl", (_CACHE_LINE + _CACHE_LINE.replace(f'"k": "{_CACHE_KEY}", ', "")
                             ).encode(),
             ['cache_path="cache.jsonl"'], 2, 'bad cache record: "k" must be a SHA-256'),
            ("cache.jsonl", _CACHE_LINE.replace(_CACHE_KEY, _CACHE_KEY.upper()).encode(),
             ['cache_path="cache.jsonl"'], 1, 'bad cache record: "k" must be a SHA-256'),
            ("cache.jsonl", b'{"v": "v0", "p": 1, "h": 2, "s": 0.5}\n',
             ['cache_path="cache.jsonl"'], 1, "bad cache record: a per-pair record"),
        ],
        ids=["corpus-not-utf8", "vocab-not-utf8", "tiers-not-utf8", "vocab-duplicate-label",
             "vocab-unparseable-label", "tiers-two-tiers", "table-number-line",
             "table-score-word", "table-score-null", "table-score-bool", "table-score-string",
             "table-default-string", "table-not-utf8", "cache-overflowing-integer",
             "cache-bool", "cache-string", "cache-score-above-one", "cache-score-negative",
             "cache-score-nan", "cache-score-infinity", "cache-key-missing",
             "cache-key-not-hex", "cache-per-pair-record"],
    )
    def test_bad_line_names_path_and_line(
        self, workdir, capsys, name, content, settings, line, message
    ):
        (workdir / name).write_bytes(content)
        assert run(workdir, "predict", *settings) == 1
        assert capsys.readouterr().err.startswith(f"error: {workdir / name}:{line}: {message}")


class TestTune:
    def test_threshold_artifact(self, workdir):
        assert run(workdir, "tune", "grid=[0.25]") == 0
        doc = json.loads((workdir / "out" / "threshold.json").read_text())
        assert doc == {
            "threshold": 0.25,
            "grid": [0.25],
            "objective": "loose_macro_f1",
            "fallback": "top1",
            "template": "taxonomic",
        }

    def test_default_grid_used_when_unset(self, workdir):
        assert run(workdir, "tune") == 0
        doc = json.loads((workdir / "out" / "threshold.json").read_text())
        assert len(doc["grid"]) == 19
        assert doc["threshold"] in doc["grid"]


class TestSplitFewshot:
    def test_artifacts(self, workdir):
        assert run(workdir, "split-fewshot", "target_unseen_fraction=0.5", "seed=3") == 0
        manifest = json.loads((workdir / "out" / "fewshot.json").read_text())
        assert set(manifest) == {"heldout_labels", "seed", "fraction"}
        assert manifest["seed"] == 3
        heldout = set(manifest["heldout_labels"])
        assert heldout
        kept = list(read_jsonl(workdir / "out" / "fewshot_train.jsonl"))
        for record in kept:
            assert not heldout & set(record["y_str"])


class TestConfigHandling:
    def test_unknown_key_in_file(self, workdir, capsys):
        config = json.loads((workdir / "config.json").read_text())
        config["nonsense"] = 1
        (workdir / "config.json").write_text(json.dumps(config))
        assert run(workdir, "predict") == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_unknown_key_in_set(self, workdir, capsys):
        assert run(workdir, "predict", "bogus=1") == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_required_path(self, workdir, capsys):
        assert run(workdir, "predict", "test_path=null") == 1
        assert "test_path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config_text, settings, message",
        [
            ("missing", [], "config file not found: {workdir}/config.json"),
            ("[1]", [], "config file {workdir}/config.json must hold a JSON object"),
            ("kept", ["threshold"], "--set expects KEY=VALUE, got 'threshold'"),
            ("kept", ['template="taxonomy"'], "unknown template 'taxonomy'"),
            ("kept", ['split="validation"'], "invalid split 'validation'"),
            ("kept", ['test_path="absent.jsonl"'],
             "test_path does not exist: {workdir}/absent.jsonl"),
        ],
        ids=["file-not-found", "file-not-object", "set-without-equals", "unknown-template",
             "invalid-split", "path-does-not-exist"],
    )
    def test_bad_config_is_one_error_line(self, workdir, capsys, config_text, settings, message):
        config = workdir / "config.json"
        if config_text == "missing":
            config.unlink()
        elif config_text != "kept":
            config.write_text(config_text)
        assert run(workdir, "predict", *settings) == 1
        assert capsys.readouterr().err == f"error: {message.format(workdir=workdir)}\n"

    @pytest.mark.parametrize(
        "command, settings",
        [
            ("predict", ["threshold=abc"]),
            ("predict", ["topk=many"]),
            ("predict", ["seed=x"]),
            ("tune", ['grid=["low"]']),
            ("tune", ["grid=0.5"]),
            ("tune", ['grid="05"']),
            ("train", ['scorer="trainable-table"', "margin=wide"]),
            ("train", ['scorer="trainable-table"', "max_epochs=all"]),
            ("split-fewshot", ["target_unseen_fraction=most"]),
            ("predict", ["topk=2.5"]),
            ("predict", ["topk=true"]),
            ("predict", ["topk=Infinity"]),
            ("predict", ["topk=1e400"]),
            ("predict", ["topk=NaN"]),
            ("predict", ["threshold=false"]),
            ("predict", ["seed=1.5"]),
            ("predict", ["seed=true"]),
            ("tune", ["grid=[0.5, true]"]),
            ("train", ['scorer="trainable-table"', "margin=true"]),
            ("train", ['scorer="trainable-table"', "negatives_per_positive=1.5"]),
            ("train", ['scorer="trainable-table"', "batch_size=true"]),
            ("train", ['scorer="trainable-table"', "max_epochs=-Infinity"]),
            ("train", ['scorer="trainable-table"', "eval_every=2.5"]),
            ("split-fewshot", ["target_unseen_fraction=true"]),
            # too many digits for json.loads: a plain ValueError, read as a string
            ("predict", ["topk=" + "5" * 5000]),
            ("predict", ["scorer=5"]),
            ("predict", ["scorer=null"]),
            ("predict", ["fallback=5"]),
            ("predict", ['fallback=["top1"]']),
            ("tune", ["fallback=5"]),
            ("predict", ["cache_path=5"]),
            ("predict", ["vocab_path=5"]),
            ("predict", ["tier_path=5"]),
            ("predict", ["test_path=5"]),
            ("tune", ["dev_path=[1]"]),
            ("split-fewshot", ["train_path=5"]),
            ("eval", ["predictions_path=5"]),
            ("predict", ["out_dir=5"]),
            ("predict", ["out_dir=null"]),
        ],
    )
    def test_non_numeric_value_names_key(self, workdir, capsys, command, settings):
        assert run(workdir, command, *settings) == 1
        key = settings[-1].partition("=")[0]
        assert capsys.readouterr().err.startswith(f"error: invalid value for config key '{key}'")

    def test_oversized_integer_in_config_file(self, workdir, capsys):
        path = workdir / "config.json"
        path.write_text(path.read_text()[:-1] + ', "topk": ' + "5" * 5000 + "}")
        assert run(workdir, "predict") == 1
        assert capsys.readouterr().err.startswith(f"error: config file {path} is not valid JSON")

    @pytest.mark.parametrize("edges", ["5", '[0, "a"]', "[0, true]", "[0, NaN]"])
    def test_non_numeric_bucket_edges(self, workdir, capsys, edges):
        assert run(workdir, "predict") == 0
        assert run(workdir, "eval", f"bucket_edges={edges}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bucket_edges" in err

    def test_whole_float_is_an_integer(self, workdir):
        assert run(workdir, "predict", "topk=2.0") == 0
        records = list(read_jsonl(workdir / "out" / "predictions.jsonl"))
        assert {len(r["topk"]) for r in records} == {2}

    @pytest.mark.parametrize(
        "command, settings",
        [
            ("predict", ["threshold=NaN"]),
            ("tune", ["grid=[0.1, NaN, 0.5]"]),
            ("train", ['scorer="trainable-table"', "margin=NaN"]),
            ("train", ['scorer="trainable-table"', "dependency_weight=NaN"]),
        ],
    )
    def test_nan_rejected(self, workdir, capsys, command, settings):
        assert run(workdir, command, *settings) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and settings[-1].partition("=")[0] in err

    @pytest.mark.parametrize(
        "command, settings, artifact, message",
        [
            ("train", ['scorer="trainable-table"', "margin=1e309"], "train_log.jsonl",
             "margin must be nonnegative and finite, got inf"),
            ("train", ['scorer="trainable-table"', "dependency_weight=1e309"], "train_log.jsonl",
             "dependency_weight must be nonnegative and finite, got inf"),
            ("tune", ["grid=[0.5, 1e309]"], "threshold.json",
             "threshold grid value inf is not finite"),
            ("tune", ["grid=[-1e309, 0.5]"], "threshold.json",
             "threshold grid value -inf is not finite"),
        ],
        ids=["margin", "dependency-weight", "grid-inf", "grid-minus-inf"],
    )
    def test_non_finite_number_names_its_value(self, workdir, capsys, command, settings,
                                               artifact, message):
        # JSON has no Infinity, so such a value must not reach a JSON artifact
        assert run(workdir, command, *settings) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workdir / "out" / artifact).exists()

    @pytest.mark.parametrize("where", ["set", "file", "out-flag"])
    def test_lone_surrogate_value_names_its_key(self, workdir, capsys, where):
        key, settings, out = "predictions_path", [], None
        if where == "set":
            settings = ['predictions_path="\\ud800"']
        elif where == "file":
            config = json.loads((workdir / "config.json").read_text())
            config[key] = "\ud800"
            (workdir / "config.json").write_text(json.dumps(config))
        else:
            # a path argument that is not UTF-8 reaches Python as a lone surrogate
            key, out = "out_dir", str(workdir / "out\udce9")
        assert run(workdir, "predict", *settings, out=out) == 1
        assert capsys.readouterr().err == (
            f"error: config key {key!r} holds a lone surrogate, which UTF-8 cannot encode\n"
        )
        assert not list(workdir.glob("out*"))

    def test_negative_topk_rejected(self, workdir, capsys):
        assert run(workdir, "predict", "topk=-1") == 1
        assert "topk must be nonnegative" in capsys.readouterr().err
        assert not (workdir / "out" / "predictions.jsonl").exists()

    @pytest.mark.parametrize("command, kind", [("predict", "table"), ("train", "trainable-table")])
    def test_missing_scorer_file(self, workdir, capsys, command, kind):
        assert run(workdir, command, f'scorer="{kind}:missing.jsonl"') == 1
        assert f"not found: {workdir / 'missing.jsonl'}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings, out, culprit",
        [
            (['vocab_path="sub"'], None, "sub"),
            (['tier_path="sub"'], None, "sub"),
            (['cache_path="sub"'], None, "sub"),
            ([], "vocab.txt", "vocab.txt"),
        ],
        ids=["vocab-path-directory", "tier-path-directory", "cache-path-directory",
             "out-names-a-file"],
    )
    def test_os_error_is_one_error_line(self, workdir, capsys, settings, out, culprit):
        (workdir / "sub").mkdir()
        out = out and str(workdir / out)
        assert run(workdir, "predict", *settings, out=out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(workdir / culprit) in err

    def test_set_overrides_apply(self, workdir):
        # a threshold above 1 forces the fallback for every instance
        assert run(workdir, "predict", "threshold=1.5", 'fallback="empty"') == 0
        records = list(read_jsonl(workdir / "out" / "predictions.jsonl"))
        assert all(r["chosen"] == [] for r in records)

    def test_out_flag_redirects(self, workdir):
        other = workdir / "elsewhere"
        assert run(workdir, "predict", out=str(other)) == 0
        assert (other / "predictions.jsonl").exists()
        assert not (workdir / "out" / "predictions.jsonl").exists()

    def test_relative_paths_resolve_against_config_dir(self, workdir, monkeypatch):
        monkeypatch.chdir(workdir.parent)
        assert run(workdir, "predict") == 0
        assert (workdir / "out" / "predictions.jsonl").exists()

    def test_load_run_config_merges_layers(self, workdir):
        config = load_run_config(
            str(workdir / "config.json"), ["threshold=0.7"], str(workdir / "o2")
        )
        assert config["threshold"] == 0.7
        assert config["out_dir"] == str(workdir / "o2")
        assert config["scorer"] == "overlap"
        assert config["_base_dir"] == str(workdir)


class TestManifest:
    def test_shape_and_artifact_list(self, workdir):
        assert run(workdir, "predict") == 0
        manifest = json.loads((workdir / "out" / "manifest.json").read_text())
        assert set(manifest) == {
            "command", "config_hash", "seed", "started_at", "finished_at", "artifacts"
        }
        assert manifest["command"] == "predict"
        assert manifest["artifacts"] == ["predictions.jsonl"]
        assert manifest["started_at"] <= manifest["finished_at"]
        assert len(manifest["config_hash"]) == 64

    def test_config_hash_tracks_settings(self, workdir):
        assert run(workdir, "predict", out=str(workdir / "a")) == 0
        assert run(workdir, "predict", "threshold=0.9", out=str(workdir / "b")) == 0
        hash_a = json.loads((workdir / "a" / "manifest.json").read_text())["config_hash"]
        hash_b = json.loads((workdir / "b" / "manifest.json").read_text())["config_hash"]
        assert hash_a != hash_b


class TestCache:
    @pytest.mark.parametrize(
        "bad", ['template="taxonomy"', "fallback=5", 'grid="x"'],
        ids=["template", "fallback", "grid"],
    )
    def test_tune_config_error_opens_no_cache(self, workdir, capsys, bad):
        assert run(workdir, "tune", 'cache_path="scores.jsonl"', bad) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (workdir / "scores.jsonl").exists()

    def test_predict_populates_and_reuses_cache(self, workdir):
        args = ("predict", 'cache_path="scores.jsonl"')
        assert run(workdir, *args, out=str(workdir / "a")) == 0
        cache_file = workdir / "scores.jsonl"
        assert cache_file.exists()
        first = (workdir / "a" / "predictions.jsonl").read_bytes()
        assert run(workdir, *args, out=str(workdir / "b")) == 0
        assert (workdir / "b" / "predictions.jsonl").read_bytes() == first

    @pytest.mark.parametrize("template", [t.value for t in TemplateKind])
    def test_golden_dumps_match_uncached_cold_and_warm(self, tmp_path, template):
        config = Path(__file__).parent / "data" / "golden" / "config.json"
        cache_path = tmp_path / "scores.jsonl"

        def predict(name, *sets):
            argv = ["predict", "--config", str(config), "--out", str(tmp_path / name),
                    "--set", f'template="{template}"']
            for item in sets:
                argv += ["--set", item]
            assert main(argv) == 0
            return (tmp_path / name / "predictions.jsonl").read_bytes()

        cached = f"cache_path={json.dumps(str(cache_path))}"
        uncached = predict("uncached")
        cold = predict("cold", cached)
        cold_cache = cache_path.read_bytes()
        assert predict("warm", cached) == cold == uncached
        # one record per test mention, and the warm run appends nothing
        assert cold_cache.count(b"\n") == len(uncached.splitlines()) == 20
        assert cache_path.read_bytes() == cold_cache


STUB = Path(__file__).parent / "external_stub.py"


def stub_spec(kind, mode):
    return f"{kind}:{shlex.quote(sys.executable)} {shlex.quote(str(STUB))} {mode}"


class TestClosesScorers:
    @pytest.mark.parametrize(
        "command, kind, mode, extra",
        [
            pytest.param("predict", "external", "ok", ['cache_path="scores.jsonl"'],
                         id="predict-external-extra0"),
            pytest.param("tune", "external", "ok", ['cache_path="scores.jsonl"'],
                         id="tune-external-extra1"),
            pytest.param("train", "external-trainable", "trainable",
                         ["max_epochs=2", "eval_every=1"], id="train-external-trainable-extra2"),
            pytest.param("predict", "external", "pairs-only", ['cache_path="scores.jsonl"'],
                         id="predict-external-pairs-only"),
            pytest.param("tune", "external", "pairs-only", ['cache_path="scores.jsonl"'],
                         id="tune-external-pairs-only"),
        ],
    )
    def test_no_endpoint_process_left_behind(
        self, workdir, monkeypatch, command, kind, mode, extra
    ):
        started = []
        real_popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            proc = real_popen(*args, **kwargs)
            started.append(proc)
            return proc

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        try:
            assert run(workdir, command, "scorer=" + json.dumps(stub_spec(kind, mode)), *extra) == 0
            assert started
            assert all(p.poll() is not None for p in started)
        finally:
            for proc in started:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def test_pairs_only_endpoint_predicts_the_same_bytes(self, workdir):
        written = []
        for mode in ("ok", "pairs-only"):
            spec = "scorer=" + json.dumps(stub_spec("external", mode))
            assert run(workdir, "predict", spec, 'threshold=0.3', out=f"out-{mode}") == 0
            written.append((workdir / f"out-{mode}" / "predictions.jsonl").read_bytes())
        assert written[0] == written[1]
        assert written[0].count(b"\n") == len(TEST_ROWS)


class TestProcessEntry:
    def test_module_invocation(self, workdir):
        result = subprocess.run(
            [sys.executable, "-m", "entail_typing.cli", "predict",
             "--config", str(workdir / "config.json")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "predictions.jsonl" in result.stdout

    def test_help_lists_subcommands(self):
        result = subprocess.run(
            [sys.executable, "-m", "entail_typing.cli", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        for name in ("render", "train", "predict", "eval", "tune", "split-fewshot"):
            assert name in result.stdout
