"""Flat key=value run configuration.

One schema covers task generation, model architecture, training, and the
gradient-check harness, so a single config file (plus ``--set`` overrides)
pins an entire reproducible run.  Files hold one ``key=value`` pair per
line; blank lines and lines starting with ``#`` are skipped.  The
``DFAF_SEED`` environment variable, when set, beats every other source of
``seed``.

Validation is collect-first: every unknown key, unparsable value, and
semantic violation is gathered into one :class:`ConfigError` so a bad config
is fixed in one round trip, not one message at a time.
"""
from __future__ import annotations

import math
import os
from dataclasses import Field, field, fields, make_dataclass
from typing import Callable, Mapping, Sequence

from .data import ToyTaskSpec, answer_vocabulary
from .model import ModelConfig
from .training import TrainConfig

SEED_ENV_VAR = "DFAF_SEED"


class ConfigError(ValueError):
    """All configuration problems found, kept as a list for exhaustive reporting."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _fields_of(cls: type, skip: tuple[str, ...] = ()) -> list[tuple[str, object, Field]]:
    return [(f.name, f.type, field(default=f.default)) for f in fields(cls) if f.name not in skip]


# Task, model and training keys are the sub-configs' own fields and defaults;
# only the keys no sub-config owns are declared here.  Field order is the
# key order of config_dict.
RunConfig = make_dataclass(
    "RunConfig",
    _fields_of(ToyTaskSpec, skip=("seed",))
    + [("n_instances", int, field(default=1000))]
    + _fields_of(ModelConfig, skip=("d_v", "d_w", "n_answers"))
    + _fields_of(TrainConfig, skip=("seed",))
    + [
        # shared by generation, training, and checking
        ("seed", int, field(default=0)),
        # optional checkpoint to continue training from ("" = fresh start)
        ("resume_from", str, field(default="")),
        # gradient-check harness
        ("gradcheck_regions", int, field(default=5)),
        ("gradcheck_words", int, field(default=4)),
        ("gradcheck_threshold", float, field(default=1e-4)),
        ("gradcheck_eps", float, field(default=1e-5)),
        ("gradcheck_corrupt", str, field(default="")),
    ],
    frozen=True,
    namespace={
        "__doc__": "Effective configuration of one command invocation.",
        "__module__": __name__,
    },
)


def sub_config(cfg: RunConfig, cls: type, **extra):
    """A ``cls`` instance from the run-config fields it shares by name, plus
    ``extra`` for fields the run config does not hold (``n_answers``)."""
    shared = {f.name: getattr(cfg, f.name) for f in fields(cls) if f.name not in extra}
    return cls(**shared, **extra)


def _parse_str_tuple(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _field_parser(name: str, annotation: object) -> Callable[[str], object]:
    if name == "templates":
        return _parse_str_tuple
    # Dataclass annotations are strings under deferred evaluation.
    key = annotation.__name__ if isinstance(annotation, type) else str(annotation)
    return {"int": int, "float": float, "str": str}[key]


_SCHEMA: dict[str, Callable[[str], object]] = {
    f.name: _field_parser(f.name, f.type) for f in fields(RunConfig)
}


def _format_value(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def config_dict(cfg: RunConfig) -> dict[str, str]:
    """Canonical string form of every field, echoed into reports."""
    return {f.name: _format_value(getattr(cfg, f.name)) for f in fields(RunConfig)}


def config_lines(cfg: RunConfig) -> str:
    """Config-file text that reloads to an equal RunConfig."""
    return "".join(f"{k}={v}\n" for k, v in config_dict(cfg).items())


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Read raw key=value pairs; syntax problems are collected, not cascaded."""
    pairs: dict[str, str] = {}
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"{source}:{lineno}: expected key=value, got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            errors.append(f"{source}:{lineno}: empty key")
            continue
        if key in pairs:
            errors.append(f"{source}:{lineno}: duplicate key {key!r}")
            continue
        pairs[key] = value.strip()
    if errors:
        raise ConfigError(errors)
    return pairs


def _semantic_errors(cfg: RunConfig) -> list[str]:
    """Cross-field validation, one message per failing sub-config."""
    errors = []
    n_answers = 2
    try:
        spec = sub_config(cfg, ToyTaskSpec)
        n_answers = len(answer_vocabulary(spec))
    except ValueError as exc:
        errors.append(f"task: {exc}")
    try:
        sub_config(cfg, ModelConfig, n_answers=n_answers)
    except ValueError as exc:
        errors.append(f"model: {exc}")
    try:
        sub_config(cfg, TrainConfig)
    except ValueError as exc:
        errors.append(f"training: {exc}")
    if cfg.n_instances < 1:
        errors.append(f"n_instances must be at least 1, got {cfg.n_instances}")
    if cfg.gradcheck_regions < 1 or cfg.gradcheck_words < 1:
        errors.append("gradcheck_regions and gradcheck_words must be at least 1")
    if cfg.gradcheck_threshold <= 0 or cfg.gradcheck_eps <= 0:
        errors.append("gradcheck_threshold and gradcheck_eps must be positive")
    return errors


def load_run_config(
    path: str | None = None,
    overrides: Sequence[str] = (),
    env: Mapping[str, str] | None = None,
) -> RunConfig:
    """Defaults, then file pairs, then ``--set`` pairs, then ``DFAF_SEED``.

    Raises :class:`ConfigError` carrying every problem found at every layer.
    """
    env = os.environ if env is None else env
    errors: list[str] = []
    pairs: dict[str, str] = {}

    if path is not None:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(
                [f"config file {path} is not valid utf-8 at byte {exc.start}"]
            ) from None
        try:
            pairs.update(parse_config_text(text, source=path))
        except ConfigError as exc:
            errors.extend(exc.errors)

    for item in overrides:
        if "=" not in item:
            errors.append(f"--set expects key=value, got {item!r}")
            continue
        key, _, value = item.partition("=")
        pairs[key.strip()] = value.strip()

    values: dict[str, object] = {}
    for key, raw in pairs.items():
        parser = _SCHEMA.get(key)
        if parser is None:
            errors.append(f"unknown config key {key!r}")
            continue
        try:
            values[key] = parser(raw)
        except ValueError:
            errors.append(f"bad value for {key}: {raw!r}")

    if SEED_ENV_VAR in env:
        raw = env[SEED_ENV_VAR]
        try:
            values["seed"] = int(raw)
        except ValueError:
            errors.append(f"bad {SEED_ENV_VAR} value: {raw!r}")

    # Domain checks every sub-config relies on: finite floats, and seeds a
    # random generator accepts.
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{key} must be finite, got {value}")
        elif key.endswith("seed") and value < 0:
            errors.append(f"{key} must be nonnegative, got {value}")

    if errors:
        raise ConfigError(errors)

    cfg = RunConfig(**values)
    semantic = _semantic_errors(cfg)
    if semantic:
        raise ConfigError(semantic)
    return cfg
