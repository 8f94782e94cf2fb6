"""The loader of the real benchmark datasets.

The datasets are classic R benchmarks whose redistribution terms are not
uniformly clear, so they are not shipped inside the package.  Running
``scripts/fetch_datasets.py`` (see its docstring) downloads or converts
them into the data directory.  ``load`` reads the file, fit columns and
label column that a real study's entry in ``presets.STUDIES`` names, and
raises DatasetMissing with the fetch instructions when the file is absent.

The data directory defaults to ``./data`` relative to the current working
directory and can be overridden with the ``NIGMIX_DATA`` environment
variable.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .io import ingest_csv
from .presets import Study

__all__ = ["DatasetMissing", "data_dir", "load"]


class DatasetMissing(FileNotFoundError):
    pass


def data_dir() -> Path:
    return Path(os.environ.get("NIGMIX_DATA", "data"))


def load(study: Study) -> tuple[np.ndarray, np.ndarray | None]:
    """The (n, d) columns a real study fits, and its integer truth labels
    (None when the study has no label column)."""
    path = data_dir() / study.file
    if not path.exists():
        raise DatasetMissing(
            f"{path} not found; run scripts/fetch_datasets.py (or its "
            f"--convert mode on a CSV exported from R) to create it"
        )
    return ingest_csv(path, list(study.columns), study.label_column)
