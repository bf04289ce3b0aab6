"""Flat run configuration: ``section.key = value`` lines, one per setting.

Every key has a typed default below; files may set any subset, unknown or
ill-typed keys are rejected with the offending line. ``dump`` echoes the
fully resolved configuration so artifacts record exactly what produced them.
"""

from __future__ import annotations

import dataclasses
import difflib
import math
from dataclasses import dataclass
from pathlib import Path

from .ctsim import DoseConfig, default_geometry
from .model import ModelConfig
from .training import TrainConfig


class ConfigError(ValueError):
    pass


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text):
    try:
        return _BOOLS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


# keyed by annotation text: model.py postpones annotations, so a field's type is a string
_PARSERS = {"int": int, "float": _parse_float, "bool": _parse_bool, "str": str}

# key -> (parser, default); the model.* keys are ModelConfig's fields
SCHEMA = {
    "data.n_pairs": (int, 10),
    "data.size": (int, 64),
    "data.n_ellipses": (int, 6),
    "data.n_views": (int, 360),
    "data.i0": (_parse_float, 1e5),
    "data.dose_fraction": (_parse_float, 0.25),
    "data.seed": (int, 0),
    **{f"model.{f.name}": (_PARSERS[f.type], f.default)
       for f in dataclasses.fields(ModelConfig)},
    # the desk-size network, not ModelConfig's full-size 1.0: it trains on a CPU
    "model.width": (_parse_float, 0.25),
    "train.epochs": (int, 300),
    "train.batch_size": (int, 8),
    "train.lr": (_parse_float, 1e-4),
    "train.lr_drop_epoch": (int, 180),
    "train.lr_dropped": (_parse_float, 1e-5),
    "train.val_pairs": (int, 1),
    "train.clip_norm": (_parse_float, 1.0),
    "train.seed": (int, 0),
    "eval.data_range": (_parse_float, 0.0),  # 0 = derive from each reference image
}


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def dump(self):
        lines = [f"{k} = {self.values[k]}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    # -- typed views --------------------------------------------------

    def model_config(self):
        return ModelConfig(**{k.removeprefix("model."): v
                              for k, v in self.values.items() if k.startswith("model.")})

    def train_config(self):
        v = self.values
        schedule = [(0, v["train.lr"])]
        if 0 < v["train.lr_drop_epoch"] < v["train.epochs"]:
            schedule.append((v["train.lr_drop_epoch"], v["train.lr_dropped"]))
        return TrainConfig(
            epochs=v["train.epochs"],
            batch_size=v["train.batch_size"],
            lr_schedule=tuple(schedule),
            seed=v["train.seed"],
            clip_norm=v["train.clip_norm"],
        )

    def dose_config(self):
        v = self.values
        return DoseConfig(i0=v["data.i0"], dose_fraction=v["data.dose_fraction"])

    def geometry(self):
        return default_geometry(self.values["data.size"], n_views=self.values["data.n_views"])


def parse_config_text(text, source="<config>"):
    """Validate config lines into a {key: typed value} dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in SCHEMA:
            close = difflib.get_close_matches(key, SCHEMA, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}{hint}")
        parser, _ = SCHEMA[key]
        try:
            out[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
    return out


def load_run_config(path=None, overrides=None):
    """Defaults, then the file (if any), then explicit overrides."""
    values = {k: default for k, (_, default) in SCHEMA.items()}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        values.update(parse_config_text(p.read_text(), source=str(p)))
    if overrides:
        for key in overrides:
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
        values.update(overrides)
    return RunConfig(values)
