"""Experiment configuration: a flat dotted-key namespace loaded from a simple
`key = value` text file, with CLI overrides. Values are JSON literals; bare
words fall back to strings."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .training import LOSSES, TrainConfig

__all__ = ["ConfigError", "ExperimentConfig", "DEFAULTS", "parse_assignment"]


class ConfigError(ValueError):
    """A config file or override could not be parsed or validated."""


DEFAULTS: dict = {
    "seed": 0,
    "loss": "iad",
    "arch": [32, 32],
    "data.kind": "blobs",          # blobs | csv | idx
    "data.classes": 3,
    "data.per_class": 1000,
    "data.side": 4.0,
    "data.spread": 0.6,
    "data.scale_unit": True,
    "data.test_fraction": 0.2,
    "data.csv": "",
    "data.idx_images": "",
    "data.idx_labels": "",
    "ood.radius_factor": 1.5,
    "ood.n": 1000,
    "attack.epsilons": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
    "eval.threshold_fraction": 0.95,
    "compare.losses": ["iad", "edl"],
    "verify.trials": 100,
    "verify.n_triples": 1000,
    # every TrainConfig field but the top-level seed, at its declared default
    **{f"train.{f.name}": f.default for f in fields(TrainConfig) if f.name != "seed"},
}


def _fits(val, default) -> bool:
    """val has the type of default: an int passes for a float, a bool never
    passes for a number, and a list's items must fit its first default item."""
    if isinstance(default, bool) or isinstance(val, bool):
        return isinstance(val, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(val, (int, float))
    if isinstance(default, list):
        return isinstance(val, list) and all(_fits(v, default[0]) for v in val)
    return isinstance(val, type(default))


def parse_assignment(text: str, where: str) -> tuple[str, object]:
    """'key = value' -> (key, value); the value is a JSON literal, or the
    bare word as a string."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    key, _, raw = text.partition("=")
    key, raw = key.strip(), raw.strip()
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = dict(DEFAULTS)
        for key, val in self.values.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            if not _fits(val, DEFAULTS[key]):
                raise ConfigError(f"{key}: {val!r} does not have the type of its "
                                  f"default {DEFAULTS[key]!r}")
            merged[key] = val
        self.values = merged
        self._validate()

    def _validate(self):
        if self.values["loss"] not in LOSSES:
            raise ConfigError(f"loss: must be one of {sorted(LOSSES)}")
        sels = self.values["compare.losses"]
        if not sels or len(set(sels)) < len(sels):
            raise ConfigError("compare.losses: must be a non-empty list of distinct "
                              f"selectors, got {sels!r}")
        for sel in sels:
            if sel not in LOSSES:
                raise ConfigError(f"compare.losses: unknown selector {sel!r}")
        if self.values["data.kind"] not in ("blobs", "csv", "idx"):
            raise ConfigError("data.kind: must be blobs, csv or idx")
        arch = self.values["arch"]
        if not arch or any(h < 1 for h in arch):
            raise ConfigError("arch: must be a non-empty list of positive ints")
        for key, low in (("seed", 0), ("data.classes", 2), ("data.per_class", 1),
                         ("ood.n", 1), ("verify.trials", 1), ("verify.n_triples", 1)):
            if self.values[key] < low:
                raise ConfigError(f"{key}: must be >= {low}, got {self.values[key]!r}")
        eps = self.values["attack.epsilons"]
        if (not eps or any(b <= a for a, b in zip(eps, eps[1:]))
                or not all(0.0 <= e < math.inf for e in eps)):
            raise ConfigError("attack.epsilons: must be non-empty, strictly ascending, "
                              f"finite and >= 0, got {eps!r}")
        frac = self.values["eval.threshold_fraction"]
        if not 0.0 < frac <= 1.0:
            raise ConfigError(f"eval.threshold_fraction: must be in (0, 1], got {frac!r}")
        for key, low, high, what in (
                ("data.test_fraction", 0.0, 1.0, "in (0, 1)"),
                ("data.spread", 0.0, math.inf, "finite and > 0"),
                ("data.side", -math.inf, math.inf, "finite"),
                ("ood.radius_factor", 1.0, math.inf, "finite and > 1")):
            val = self.values[key]
            if not low < val < high:
                raise ConfigError(f"{key}: must be {what}, got {val!r}")
        try:
            self.train_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        """The file's `key = value` lines, then the overrides; a key the file
        sets twice is refused."""
        values: dict = {}
        first_line: dict[str, int] = {}
        raw = Path(path).read_bytes()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = raw.count(b"\n", 0, exc.start) + 1
            raise ConfigError(
                f"{path}:{lineno}: byte 0x{raw[exc.start]:02x} is not UTF-8") from None
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, val = parse_assignment(line, f"{path}:{lineno}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: {key} is already set on line "
                                  f"{first_line[key]}")
            values[key], first_line[key] = val, lineno
        if overrides:
            values.update(overrides)
        return cls(values)

    def __getitem__(self, key: str):
        return self.values[key]

    def train_config(self) -> TrainConfig:
        """Every train.* key is the TrainConfig field of the same name."""
        return TrainConfig(seed=self.values["seed"], **{
            key.removeprefix("train."): val for key, val in self.values.items()
            if key.startswith("train.")})

    def resolved_text(self) -> str:
        lines = [f"{k} = {json.dumps(self.values[k])}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"
