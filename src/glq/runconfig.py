"""Structured run configuration with strict validation.

A config file is flat JSON. Unknown keys are rejected outright, every
value is range-checked, and anything omitted falls back to the field
default, so a config that loads is a config that runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .guidedquant import METHODS

_TASKS = ("squared_error", "softmax_cross_entropy")


@dataclass
class RunConfig:
    seed: int = 0
    n: int = 64
    d0: int = 8
    dt: int = 4
    task: str = "squared_error"
    hidden: tuple[int, ...] = (16, 16)
    steps: int = 300
    lr: float = 2e-3
    method: str = "lnq_guided"
    bits: int = 2
    g: int = 4
    grad_scale: float = 1e3
    damping_rel: float = 1e-7
    T: int = 2
    K: int = 4

    def __post_init__(self) -> None:
        checks = [
            (self.n >= 1, "n must be >= 1"),
            (self.d0 >= 1 and self.dt >= 1, "d0 and dt must be >= 1"),
            (self.task in _TASKS, f"task must be one of {_TASKS}"),
            (all(h >= 1 for h in self.hidden), "hidden widths must be >= 1"),
            (self.steps >= 0, "steps must be >= 0"),
            (self.lr > 0, "lr must be > 0"),
            (self.method in METHODS, f"method must be one of {METHODS}"),
            (1 <= self.bits <= 8, "bits must be in 1..8"),
            (self.g >= 1, "g must be >= 1"),
            (self.grad_scale > 0, "grad_scale must be > 0"),
            (self.damping_rel >= 0, "damping_rel must be >= 0"),
            (self.T >= 1, "T must be >= 1"),
            (self.K >= 1, "K must be >= 1"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        self.hidden = tuple(int(h) for h in self.hidden)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict(raw)

    @property
    def dims(self) -> list[int]:
        return [self.d0, *self.hidden, self.dt]
