"""Fit configuration shared by both engines and the command-line front-end."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

# The values a ``FitConfig`` field may take, where the field has a fixed set.
CHOICES = {"model": ("unig", "mnig"), "init_mode": ("random", "kmeans")}


class InvalidData(ValueError):
    """Settings or data that a fit cannot take; the CLI exits 3 on it."""


@dataclass
class FitConfig:
    """All knobs of a variational fit, with the documented defaults.

    ``hyper_init`` is the flat-prior mass placed on every conjugate
    hyperparameter; ``prune_threshold`` is the minimum effective component
    count kept alive.  ``nigmix fit`` has one flag per field, of the
    field default's type.
    """

    model: str = "unig"
    g_init: int = 10
    init_mode: str = "kmeans"
    hyper_init: float = 1e-8
    prune_threshold: float = 1.0
    tol: float = 1e-6
    max_iter: int = 500
    seed: int = 0

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise InvalidData(f"unknown {name} {getattr(self, name)!r}")
        for name, least in (("g_init", 2), ("max_iter", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and value >= least):
                raise InvalidData(f"{name} must be an integer >= {least}")
            # Plain numbers, so that the run record is JSON and a numpy or
            # bool twin of a value records and hashes as the value does.
            setattr(self, name, int(value))
        # An infinite prior mass or count threshold leaves no live component,
        # and a responsibility change is never below nan or a bound <= 0, so
        # such a tol could only end at max_iter.
        for name in ("hyper_init", "prune_threshold", "tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidData(f"{name} must be finite and > 0")
            setattr(self, name, float(getattr(self, name)))
