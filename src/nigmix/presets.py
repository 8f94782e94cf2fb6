"""Named simulation presets and ``STUDIES``, the table of named studies.

The separated and overlapping univariate presets fix parameter values for
regimes the studies describe only qualitatively; the two-dimensional preset
uses the published true parameter table, and the ten-dimensional preset is
a documented choice producing two distinguishable but adjacent components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import MixtureSpec, MNIGParams, UNIGParams

__all__ = ["simulation_preset", "STUDIES", "Study"]


def _study1() -> tuple[MixtureSpec, tuple[int, ...]]:
    spec = MixtureSpec(
        weights=[0.5, 0.5],
        components=(
            UNIGParams(mu=0.0, beta=1.0, delta=1.0, gamma=2.0),
            UNIGParams(mu=12.0, beta=-1.0, delta=1.0, gamma=2.0),
        ),
    )
    return spec, (150, 150)


def _study2() -> tuple[MixtureSpec, tuple[int, ...]]:
    spec = MixtureSpec(
        weights=[150 / 305, 155 / 305],
        components=(
            UNIGParams(mu=0.0, beta=1.0, delta=1.0, gamma=2.0),
            UNIGParams(mu=5.0, beta=-1.0, delta=1.0, gamma=2.0),
        ),
    )
    return spec, (150, 155)


def _study4() -> tuple[MixtureSpec, tuple[int, ...]]:
    spec = MixtureSpec(
        weights=[150 / 350, 200 / 350],
        components=(
            MNIGParams(
                mu_t=[-2.0, -10.0],
                beta_t=[0.1, 0.2],
                sigma_t=[[1.2, 0.0], [0.0, 1.2]],
                gamma_t=1.2,
            ),
            MNIGParams(
                mu_t=[-10.0, -12.0],
                beta_t=[0.2, 0.75],
                sigma_t=[[1.0, 0.4], [0.4, 1.0]],
                gamma_t=0.8,
            ),
        ),
    )
    return spec, (150, 200)


def _study5() -> tuple[MixtureSpec, tuple[int, ...]]:
    d = 10
    spec = MixtureSpec(
        weights=[150 / 350, 200 / 350],
        components=(
            MNIGParams(
                mu_t=np.zeros(d),
                beta_t=np.full(d, 0.1),
                sigma_t=np.eye(d),
                gamma_t=2.0,
            ),
            MNIGParams(
                mu_t=np.full(d, 2.5),
                beta_t=np.full(d, -0.1),
                sigma_t=1.2 * np.eye(d),
                gamma_t=2.0,
            ),
        ),
    )
    return spec, (150, 200)


@dataclass(frozen=True)
class Study:
    """How ``nigmix reproduce`` runs a named study: the engine (``model``),
    the initial component count and the data source.  A simulation study's
    source is its ``preset``; a real study's is ``file`` in the data
    directory, with the ``columns`` to fit, the optional ``label_column``
    holding the truth and optional ``merge_groups`` of truth labels."""

    model: str
    g_init: int
    preset: Callable[[], tuple[MixtureSpec, tuple[int, ...]]] | None = None
    file: str | None = None
    columns: tuple[str, ...] = ()
    label_column: str | None = None
    merge_groups: tuple[frozenset[int], ...] = ()


STUDIES = {
    "study1": Study("unig", 10, preset=_study1),
    "study2": Study("unig", 10, preset=_study2),
    "study4": Study("mnig", 5, preset=_study4),
    "study5": Study("mnig", 10, preset=_study5),
    "faithful": Study("mnig", 7, file="faithful.csv",
                      columns=("eruptions", "waiting")),
    # class4 crosses species with sex.
    "crabs": Study("mnig", 10, file="crabs.csv",
                   columns=("FL", "RW", "CL", "CW", "BD"), label_column="class4"),
    # Species codes follow the source data ordering (1 bream, 2 whitewish,
    # 3 roach, 4 parkki, 5 smelt, 6 pike, 7 perch).  The published
    # four-class truth merges bream with parkki and whitewish with roach
    # and perch.
    "fishcatch": Study("mnig", 10, file="fish.csv",
                       columns=("Length3", "Height", "Width"),
                       label_column="Species",
                       merge_groups=(frozenset({1, 4}), frozenset({2, 3, 7}))),
    "enzyme": Study("unig", 5, file="enzyme.csv", columns=("activity",)),
}


def simulation_preset(name: str) -> tuple[MixtureSpec, tuple[int, ...]]:
    """Mixture spec and exact per-component counts for a named preset."""
    study = STUDIES.get(name)
    if study is None or study.preset is None:
        names = sorted(n for n, s in STUDIES.items() if s.preset)
        raise KeyError(f"unknown preset {name!r}; choose from {names}")
    return study.preset()
