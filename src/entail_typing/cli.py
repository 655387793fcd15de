"""Command-line entry point for reproducible typing-experiment runs.

Subcommands: render (pair dumps), train, predict, eval, tune (threshold
search), and split-fewshot (held-out label splits). Behavior is driven by
a flat JSON config file plus --set overrides; artifacts land in --out and
are written atomically so reruns with the same config and seed reproduce
them byte for byte. Wall-clock timestamps appear only in the run
manifest.
"""

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from ._util import atomic_write, atomic_write_json, atomic_write_jsonl, json_number, numbered_jsonl
from .corpus import (
    Dataset,
    FewShotSplitSpec,
    fewshot_manifest,
    frequency_buckets,
    instance_to_record,
    load_ufet_jsonl,
    make_fewshot_split,
)
from .errors import ConfigError, EntailTypingError, SchemaError
from .evaluation import evaluate, report_to_json, report_to_text
from .inference import (
    DEFAULT_GRID,
    FallbackPolicy,
    PredictionConfig,
    PredictionSet,
    Ranking,
    predict,
    prediction_to_record,
    rank_all_candidates,
    tune_threshold,
)
from .labelspace import LabelVocabulary, load_vocabulary
from .scoring import CachedScorer, ScoreCache, TrainableScorer, scorer_from_spec
from .templates import TemplateKind, build_dependency_pair, build_type_pair, pair_to_record
from .training import TrainingConfig, instance_positives, train

_DEFAULTS = {
    "train_path": None,
    "dev_path": None,
    "test_path": None,
    "vocab_path": None,
    "tier_path": None,
    "split": None,
    "template": "taxonomic",
    "scorer": "overlap",
    "threshold": 0.5,
    "fallback": "top1",
    "topk": 10,
    "margin": 0.1,
    "dependency_weight": 0.05,
    "negatives_per_positive": 1,
    "batch_size": 16,
    "max_epochs": 30,
    "eval_every": 30,
    "seed": 0,
    "grid": list(DEFAULT_GRID),
    "bucket_edges": None,
    "target_unseen_fraction": 0.4,
    "cache_path": None,
    "predictions_path": None,
    "out_dir": "out",
}

_DEFAULT_SPLITS = {"render": "train", "predict": "test", "eval": "test"}


def _parse_set_value(text: str):
    """Override values are JSON when they parse, plain strings otherwise."""
    try:
        return json.loads(text)
    except ValueError:  # also an integer too long to convert
        return text


def load_run_config(
    config_path: str | None, overrides: list[str], out_override: str | None
) -> dict:
    """Merge defaults, the config file, and --set overrides into one dict."""
    config = dict(_DEFAULTS)
    base_dir = Path.cwd()
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        base_dir = path.parent
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # also an integer too long to convert
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for key, value in loaded.items():
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            config[key] = value
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r} in --set")
        config[key] = _parse_set_value(value)
    if out_override:
        config["out_dir"] = out_override
    config["_base_dir"] = str(base_dir)
    return config


def _resolve(config: dict, key: str) -> Path:
    if not config.get(key):
        raise ConfigError(f"config key {key!r} is required for this command")
    path = Path(config["_base_dir"]) / _value(config, key, _text)
    if not path.exists():
        raise ConfigError(f"{key} does not exist: {path}")
    return path


def _load_split(config: dict, split: str) -> Dataset:
    return load_ufet_jsonl(_resolve(config, f"{split}_path"), split)


def _load_vocab(config: dict) -> LabelVocabulary:
    tier_path = _resolve(config, "tier_path") if config.get("tier_path") else None
    return load_vocabulary(_resolve(config, "vocab_path"), tier_path)


def _template(config: dict) -> TemplateKind:
    try:
        return TemplateKind(config["template"])
    except ValueError:
        raise ConfigError(f"unknown template {config['template']!r}") from None


def _scorer(config: dict):
    return scorer_from_spec(_value(config, "scorer", _text), base_dir=config["_base_dir"])


def _maybe_cached(scorer, config: dict):
    if config.get("cache_path"):
        cache_path = Path(config["_base_dir"]) / _value(config, "cache_path", _text)
        return CachedScorer(scorer, ScoreCache(cache_path))
    return scorer


def _text(value) -> str:
    """A JSON string as is; nothing else is text."""
    if not isinstance(value, str):
        raise ValueError(value)
    return value


def _whole(value) -> int:
    """A JSON number with a whole, finite value, as an int."""
    if not json_number(value).is_integer():
        raise ValueError(value)
    return int(value)


def _value(config: dict, key: str, convert=json_number):
    """``convert(config[key])``, else a ConfigError naming the key."""
    value = config[key]
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"invalid value for config key {key!r}: {value!r}") from None


def _prediction_config(config: dict) -> PredictionConfig:
    return PredictionConfig(
        threshold=_value(config, "threshold"),
        fallback=FallbackPolicy.parse(_value(config, "fallback", _text)),
        template=_template(config),
        topk=_value(config, "topk", _whole),
    )


def _split_name(config: dict, command: str) -> str:
    split = config.get("split") or _DEFAULT_SPLITS.get(command)
    if split not in ("train", "dev", "test"):
        raise ConfigError(f"invalid split {split!r}")
    return split


def cmd_render(config: dict, out_dir: Path) -> list[str]:
    """Dump premise-hypothesis pairs for every positive label of a split.

    The positives are those training ranks (``instance_positives``): each
    instance's type pairs, then its dependency pairs; instances without gold
    labels have none. Per-label rendering failures become inline records
    carrying an "error" key, and the run continues.
    """
    split = _split_name(config, "render")
    dataset = _load_split(config, split)
    vocab = _load_vocab(config)
    template = _template(config)
    records = []
    for instance in dataset:
        labels, deps = instance_positives(instance, vocab, template)
        targets = [(build_type_pair, label, label.raw) for label in labels]
        targets += [(build_dependency_pair, dep, dep.descendant.raw) for dep in deps]
        for build, target, raw in targets:
            try:
                records.append(pair_to_record(build(instance, target, template)))
            except EntailTypingError as exc:
                records.append(
                    {
                        "error": str(exc),
                        "instance_id": instance.id,
                        "label": raw,
                        "template": template.value,
                    }
                )
    atomic_write_jsonl(out_dir / "pairs.jsonl", records)
    return ["pairs.jsonl"]


def cmd_train(config: dict, out_dir: Path) -> list[str]:
    """Run the epoch loop and write the training log and best checkpoint."""
    scorer = _scorer(config)
    if not isinstance(scorer, TrainableScorer):
        raise ConfigError(f"scorer spec {config['scorer']!r} is not trainable")
    train_set = _load_split(config, "train")
    dev_set = _load_split(config, "dev")
    vocab = _load_vocab(config)
    training_config = TrainingConfig(
        margin=_value(config, "margin"),
        dependency_weight=_value(config, "dependency_weight"),
        negatives_per_positive=_value(config, "negatives_per_positive", _whole),
        batch_size=_value(config, "batch_size", _whole),
        max_epochs=_value(config, "max_epochs", _whole),
        eval_every=_value(config, "eval_every", _whole),
        template=_template(config),
        seed=_value(config, "seed", _whole),
    )
    try:
        best_tag, log = train(
            train_set, dev_set, vocab, scorer, training_config, _prediction_config(config)
        )
    finally:
        scorer.close()
    atomic_write_jsonl(out_dir / "train_log.jsonl", log)
    checkpoint = {"best_checkpoint": best_tag, "evals": len(log)}
    atomic_write_json(out_dir / "checkpoint.json", checkpoint)
    return ["train_log.jsonl", "checkpoint.json"]


def cmd_predict(config: dict, out_dir: Path) -> list[str]:
    """Rank and threshold a split; write each prediction as its mention is ranked."""
    prediction_config = _prediction_config(config)
    split = _split_name(config, "predict")
    dataset = _load_split(config, split)
    vocab = _load_vocab(config)
    scorer = _maybe_cached(_scorer(config), config)
    render_errors = []

    def collect(label, exc):
        render_errors.append({"label": label.raw, "error": str(exc)})

    def record(inst):
        ranking = rank_all_candidates(inst, vocab, scorer, prediction_config.template, collect)
        return prediction_to_record(predict(ranking, prediction_config, instance_id=inst.id))

    try:
        atomic_write_jsonl(out_dir / "predictions.jsonl", map(record, dataset))
    finally:
        scorer.close()
    artifacts = ["predictions.jsonl"]
    if render_errors:
        atomic_write_jsonl(out_dir / "render_errors.jsonl", render_errors)
        artifacts.append("render_errors.jsonl")
    return artifacts


def cmd_eval(config: dict, out_dir: Path) -> list[str]:
    """Score a prediction dump against a split's gold labels."""
    split = _split_name(config, "eval")
    dataset = _load_split(config, split)
    golds = {inst.id: set(inst.gold_labels) for inst in dataset}

    if config.get("predictions_path"):
        predictions_path = _resolve(config, "predictions_path")
    else:
        predictions_path = out_dir / "predictions.jsonl"
        if not predictions_path.exists():
            raise ConfigError(f"no predictions found at {predictions_path}")
    preds = []
    for lineno, r in numbered_jsonl(predictions_path):
        where = f"{predictions_path}:{lineno}"
        for key in ("instance_id", "chosen"):
            if key not in r:
                raise SchemaError(f"{where}: missing key {key!r}")
        instance_id, chosen = r["instance_id"], r["chosen"]
        if not isinstance(instance_id, str):
            raise SchemaError(f"{where}: instance_id must be a string")
        if not isinstance(chosen, list) or not all(isinstance(c, str) for c in chosen):
            raise SchemaError(f"{where}: chosen must be a list of strings")
        preds.append(PredictionSet(instance_id, frozenset(chosen), top=Ranking([], [])))

    buckets = None
    if config.get("bucket_edges"):
        train_set = _load_split(config, "train")
        edges = _value(config, "bucket_edges", tuple)
        buckets = frequency_buckets(train_set, dataset, edges)
    report = evaluate(preds, golds, buckets)
    atomic_write_json(out_dir / "report.json", report_to_json(report))
    atomic_write(out_dir / "report.txt", [report_to_text(report)])
    return ["report.json", "report.txt"]


def cmd_tune(config: dict, out_dir: Path) -> list[str]:
    """Grid-search the prediction threshold on the dev split."""
    dev_set = _load_split(config, "dev")
    vocab = _load_vocab(config)
    template = _template(config)
    fallback = FallbackPolicy.parse(_value(config, "fallback", _text))
    grid = _value(config, "grid", lambda g: [json_number(v) for v in g])
    scorer = _maybe_cached(_scorer(config), config)
    try:
        threshold = tune_threshold(dev_set, vocab, scorer, template, grid, fallback=fallback)
    finally:
        scorer.close()
    doc = {
        "threshold": threshold,
        "grid": grid,
        "objective": "loose_macro_f1",
        "fallback": fallback.spec(),
        "template": template.value,
    }
    atomic_write_json(out_dir / "threshold.json", doc)
    return ["threshold.json"]


def cmd_split_fewshot(config: dict, out_dir: Path) -> list[str]:
    """Remove a seeded fraction of test labels from training; write the result."""
    train_set = _load_split(config, "train")
    test_set = _load_split(config, "test")
    spec = FewShotSplitSpec(
        target_unseen_fraction=_value(config, "target_unseen_fraction"),
        seed=_value(config, "seed", _whole),
    )
    filtered, heldout = make_fewshot_split(train_set, test_set, spec)
    atomic_write_jsonl(
        out_dir / "fewshot_train.jsonl", [instance_to_record(i) for i in filtered]
    )
    atomic_write_json(out_dir / "fewshot.json", fewshot_manifest(heldout, spec))
    return ["fewshot_train.jsonl", "fewshot.json"]


_COMMANDS = {
    "render": cmd_render,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "tune": cmd_tune,
    "split-fewshot": cmd_split_fewshot,
}


def _config_hash(config: dict) -> str:
    visible = {k: v for k, v in config.items() if not k.startswith("_")}
    canonical = json.dumps(visible, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entail-typing",
        description="Entailment-based entity typing: render, train, predict, eval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__.splitlines()[0] if func.__doc__ else None)
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key; VALUE parsed as JSON when possible",
        )
        p.add_argument("--out", help="output directory (overrides config out_dir)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config, args.set, args.out)
        out_dir = Path(config["_base_dir"]) / _value(config, "out_dir", _text)
        out_dir.mkdir(parents=True, exist_ok=True)
        seed = _value(config, "seed", _whole)
        started = datetime.now(timezone.utc).isoformat()
        artifacts = _COMMANDS[args.command](config, out_dir)
        manifest = {
            "command": args.command,
            "config_hash": _config_hash(config),
            "seed": seed,
            "started_at": started,
            "finished_at": datetime.now(timezone.utc).isoformat(),
            "artifacts": artifacts,
        }
        atomic_write_json(out_dir / "manifest.json", manifest)
    except (EntailTypingError, OSError) as exc:  # an OSError names the path it failed on
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in artifacts:
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
