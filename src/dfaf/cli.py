"""Command-line front end.

Grammar::

    dfaf <gen-data|train|eval|gradcheck|inspect> [--config PATH] [--set key=value ...] [paths]

Reports go to standard output as JSON (training streams one JSON object per
epoch); progress logs go to standard error.  Exit codes: 0 success, 1 failed
check, 2 configuration error, 3 data or checkpoint error or out of memory,
4 numerical divergence.  The effective configuration is echoed into every
report so any run can be reproduced by feeding the echo back as a config
file.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Sequence

import numpy as np

from .attention import AttentionRecord
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, config_dict, load_run_config, sub_config
from .data import (
    FeatureDataset,
    FeatureFileError,
    ToyTaskSpec,
    dataset_summary,
    generate_feature_dataset,
    read_feature_file,
    write_feature_file,
)
from .gradcheck import run_gradcheck
from .model import ModelConfig, build_model, predict
from .tensor import ShapeError, Tensor
from .training import (
    AdamaxState,
    DivergenceError,
    TrainConfig,
    evaluate_by_template,
    train,
)


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def cmd_gen_data(cfg: RunConfig, args: argparse.Namespace) -> int:
    spec = sub_config(cfg, ToyTaskSpec)
    dataset = generate_feature_dataset(spec, cfg.n_instances)
    write_feature_file(args.out, dataset)
    _log(f"wrote {cfg.n_instances} instances to {args.out}")
    _emit(
        {
            "command": "gen-data",
            "config": config_dict(cfg),
            "path": args.out,
            "summary": dataset_summary(dataset),
        }
    )
    return 0


def _check_fits(model_config: ModelConfig, dataset: FeatureDataset, source: str) -> None:
    """Raise ShapeError unless the data file has the feature widths and the
    answer count of ``model_config``, which ``source`` names, and finite
    features."""
    widths = (dataset.regions.shape[2], dataset.tokens.shape[2])
    if (model_config.d_v, model_config.d_w) != widths:
        raise ShapeError(
            f"{source} expects features {model_config.d_v}x{model_config.d_w}, "
            f"data file has {widths[0]}x{widths[1]}"
        )
    if model_config.n_answers != dataset.n_answers:
        raise ShapeError(
            f"{source} answer head has {model_config.n_answers} entries, "
            f"data file has {dataset.n_answers}"
        )
    finite = np.isfinite(dataset.regions).all(axis=(1, 2))
    finite &= np.isfinite(dataset.tokens).all(axis=(1, 2))
    if not finite.all():
        raise ShapeError(
            f"data file instance {int(finite.argmin())} holds a non-finite feature value"
        )


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    dataset = read_feature_file(args.data)
    model_config = sub_config(cfg, ModelConfig, n_answers=dataset.n_answers)
    _check_fits(model_config, dataset, "config")

    state = None
    if cfg.resume_from:
        model, saved_config, trailer = load_checkpoint(cfg.resume_from)
        if saved_config != model_config:
            raise ConfigError(
                [
                    f"checkpoint architecture {saved_config} does not match "
                    f"configured architecture {model_config}"
                ]
            )
        if trailer is not None:
            # Copy the mapped trailer and drop it: the checkpoint written
            # below may truncate the very file it maps.
            state = AdamaxState.from_checkpoint_trailer(trailer)
            del trailer
        _log(f"resumed from {cfg.resume_from} at step {state.t if state else 0}")
    else:
        model = build_model(model_config, np.random.default_rng(cfg.seed))

    _emit({"command": "train", "config": config_dict(cfg), "data": args.data})

    def stream(row: dict) -> None:
        _emit(row)
        _log(
            f"epoch {row['epoch']}/{cfg.epochs} "
            f"loss {row['train_loss']:.4f} acc {row['eval_acc']:.4f}"
        )

    metrics, state = train(
        model, dataset, sub_config(cfg, TrainConfig), state=state, on_epoch=stream
    )
    save_checkpoint(args.ckpt_out, model, model_config, state.as_checkpoint_trailer())
    _emit(
        {
            "checkpoint": args.ckpt_out,
            "steps": state.t,
            "final_train_loss": metrics[-1]["train_loss"],
            "final_eval_acc": metrics[-1]["eval_acc"],
        }
    )
    return 0


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    model, model_config, _ = load_checkpoint(args.ckpt)
    dataset = read_feature_file(args.data)
    _check_fits(model_config, dataset, "checkpoint")
    report = evaluate_by_template(model, dataset, cfg.eval_batch_size)
    _emit(
        {
            "command": "eval",
            "config": config_dict(cfg),
            "checkpoint": args.ckpt,
            "data": args.data,
            "accuracy": report["overall"],
            "n_instances": report["n"],
            "per_template": report["per_template"],
        }
    )
    return 0


def cmd_gradcheck(cfg: RunConfig, args: argparse.Namespace) -> int:
    try:
        report = run_gradcheck(
            dim=cfg.dim,
            regions=cfg.gradcheck_regions,
            words=cfg.gradcheck_words,
            n_blocks=cfg.n_blocks,
            heads=cfg.heads,
            order=cfg.order,
            seed=cfg.seed,
            threshold=cfg.gradcheck_threshold,
            eps=cfg.gradcheck_eps,
            corrupt=cfg.gradcheck_corrupt,
        )
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    _emit({**report, "command": "gradcheck", "config": config_dict(cfg)})
    _log(
        f"gradcheck {'passed' if report['passed'] else 'FAILED'} "
        f"(max rel err {report['max_rel_err']:.3e})"
    )
    return 0 if report["passed"] else 1


def _block_payload(index: int, record: AttentionRecord) -> dict:
    # Row 0 of each recorded array, in field order: inspect runs its
    # instance as a batch of one.
    payload: dict = {"block": index}
    for f in fields(record):
        arr = getattr(record, f.name)
        if arr is not None:
            payload[f.name] = arr[0].tolist()
    return payload


def cmd_inspect(cfg: RunConfig, args: argparse.Namespace) -> int:
    model, model_config, _ = load_checkpoint(args.ckpt)
    dataset = read_feature_file(args.data)
    _check_fits(model_config, dataset, "checkpoint")
    if not 0 <= args.index < len(dataset):
        raise IndexError(
            f"instance index {args.index} out of range for {len(dataset)} instances"
        )
    one = slice(args.index, args.index + 1)
    pred = predict(Tensor(dataset.regions[one]), Tensor(dataset.tokens[one]), model, record=True)
    logits = pred.logits.data[0]
    predicted = None  # a non-finite row predicts nothing, not answer 0
    if np.isfinite(logits).all():
        predicted = dataset.answer_names[int(logits.argmax())]
    dump = {
        "config": config_dict(cfg),
        "instance": {
            "index": args.index,
            "template": dataset.template_names[dataset.template_ids[args.index]],
            "answer": dataset.answer_names[dataset.answers[args.index]],
            "predicted": predicted,
        },
        "blocks": [_block_payload(i, rec) for i, rec in enumerate(pred.records)],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
    _log(f"wrote attention dump to {args.out}")
    _emit(
        {
            "command": "inspect",
            "config": config_dict(cfg),
            "written": args.out,
            "blocks": len(dump["blocks"]),
            "instance": dump["instance"],
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="key=value config file")
    shared.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override one config key (repeatable)",
    )

    parser = argparse.ArgumentParser(
        prog="dfaf",
        description="Train and probe a two-modality attention-flow classifier "
        "on synthetic grid-scene question answering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[shared], help="generate a feature file")
    p.add_argument("out", help="output feature file path")

    p = sub.add_parser("train", parents=[shared], help="train on a feature file")
    p.add_argument("data", help="training feature file")
    p.add_argument("ckpt_out", help="checkpoint output path")

    p = sub.add_parser("eval", parents=[shared], help="evaluate a checkpoint")
    p.add_argument("ckpt", help="checkpoint path")
    p.add_argument("data", help="feature file to score")

    sub.add_parser("gradcheck", parents=[shared], help="verify gradients")

    p = sub.add_parser("inspect", parents=[shared], help="dump attention maps")
    p.add_argument("ckpt", help="checkpoint path")
    p.add_argument("data", help="feature file")
    p.add_argument("index", type=int, help="instance index")
    p.add_argument("out", help="JSON output path")

    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "inspect": cmd_inspect,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, args.overrides)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        for line in exc.errors:
            _log(f"config error: {line}")
        return 2
    except (FeatureFileError, CheckpointError, ShapeError, IndexError) as exc:
        _log(f"data error: {exc}")
        return 3
    except OSError as exc:
        _log(f"io error: {exc}")
        return 3
    except MemoryError as exc:
        _log(f"out of memory: {exc}")
        return 3
    except DivergenceError as exc:
        _log(f"diverged: {exc}")
        return 4
