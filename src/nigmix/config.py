"""Fit configuration shared by both engines and the command-line front-end."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field


class InvalidData(ValueError):
    """Settings or data that a fit cannot take; the CLI exits 3 on it."""


@dataclass
class FitConfig:
    """All knobs of a variational fit, with the documented defaults.

    ``hyper_init`` is the flat-prior mass placed on every conjugate
    hyperparameter; ``prune_threshold`` is the minimum effective component
    count kept alive.
    """

    model: str = "unig"
    g_init: int = 10
    init_mode: str = "kmeans"
    hyper_init: float = 1e-8
    prune_threshold: float = 1.0
    tol: float = 1e-6
    max_iter: int = 500
    seed: int = 0
    columns: list[str] | None = field(default=None)
    label_column: str | None = None

    def __post_init__(self):
        if self.model not in ("unig", "mnig"):
            raise InvalidData(f"unknown model {self.model!r}")
        if self.init_mode not in ("random", "kmeans"):
            raise InvalidData(f"unknown init_mode {self.init_mode!r}")
        if self.g_init < 2:
            raise InvalidData("g_init must be >= 2")
        if self.max_iter < 1:
            raise InvalidData("max_iter must be >= 1")
        if self.seed < 0:
            raise InvalidData("seed must be >= 0")
        if not (self.hyper_init > 0.0 and self.prune_threshold > 0.0):
            raise InvalidData("hyper_init and prune_threshold must be positive")
        # A responsibility change is never below nan or a bound <= 0, so such
        # a tol could only end at max_iter.
        if not 0.0 < self.tol < math.inf:
            raise InvalidData("tol must be finite and > 0")

    def to_dict(self) -> dict:
        return asdict(self)
