"""Dataset ingestion and JSON persistence for specs, fits, and run records.

File conventions: matrices travel as headered CSV (UTF-8, comma separated);
models, configurations, and run records travel as JSON with stable field
names.  Result payload hashes exclude wall-clock timings so reruns with
identical inputs are hash-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from ._vbcore import FitResult, take
from .config import FitConfig
from .distributions import LabeledSample, MixtureSpec, MNIGParams, UNIGParams
from .evaluation import canonicalize
from .vb_mnig import ComponentHyperM, ExpectationBundleM
from .vb_unig import ComponentHyper, ExpectationBundle

__all__ = [
    "ingest_csv",
    "whole_labels",
    "write_sample_csv",
    "mixture_spec_to_dict",
    "mixture_spec_from_dict",
    "result_to_dict",
    "result_from_dict",
    "make_run_record",
    "run_record_hash",
    "file_fingerprint",
    "write_json",
    "read_json",
]


def ingest_csv(
    path,
    columns: list[str] | None = None,
    label_column: str | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a headered CSV into a row-major float matrix.

    ``columns`` selects and orders the numeric columns (default: all except
    the label column).  Non-numeric and non-finite cells in selected
    columns are rejected with the offending row index.  A label column of
    whole numbers (see ``whole_labels``) keeps its values; any other label
    column, of text or of numbers such as ``2.5`` or ``inf``, is coded
    1..k in order of first appearance.  A leading UTF-8 byte-order mark
    (Excel's "CSV UTF-8" export writes one) is skipped.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = [row for row in reader if row]

    if columns is None:
        columns = [c for c in header if c != label_column]
    if not columns:
        raise ValueError("empty column selection")
    try:
        col_idx = [header.index(c) for c in columns]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    lab_idx = header.index(label_column) if label_column else None

    data = np.empty((len(rows), len(col_idx)))
    raw_labels = []
    for i, row in enumerate(rows):
        for j, c in enumerate(col_idx):
            try:
                data[i, j] = float(row[c])
            except (ValueError, IndexError):
                raise ValueError(
                    f"{path}: non-numeric cell in row {i + 2}, "
                    f"column {columns[j]!r}"
                ) from None
        if lab_idx is not None:
            if lab_idx >= len(row):
                raise ValueError(f"{path}: row {i + 2} has no {label_column!r} cell")
            raw_labels.append(row[lab_idx].strip())
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise ValueError(
            f"{path}: non-finite cell in row {i + 2}, column {columns[j]!r}"
        )

    if lab_idx is None:
        return data, None
    try:
        labels = whole_labels([float(v) for v in raw_labels])
    except ValueError:  # a cell that is no number
        labels = None
    return data, canonicalize(raw_labels) if labels is None else labels


def whole_labels(values) -> np.ndarray | None:
    """``values`` as integers when each is a whole number below 2**53 in
    magnitude, every one of which a double holds exactly; else None."""
    values = np.asarray(values, dtype=float)
    whole = (np.abs(values) < 2.0**53) & (values == np.floor(values))
    return values.astype(int) if whole.all() else None


def write_sample_csv(path, sample: LabeledSample) -> None:
    """One observation per row, trailing integer label column."""
    obs = np.atleast_2d(sample.observations)
    d = obs.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(d)] + ["label"])
        for row, lab in zip(obs, sample.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])


# The dataclasses behind the ``type`` tag of a spec component and the
# ``model`` tag of a fit result.
_COMPONENT_TYPES = {"unig": UNIGParams, "mnig": MNIGParams}
_RESULT_TYPES = {
    "unig": (ComponentHyper, ExpectationBundle),
    "mnig": (ComponentHyperM, ExpectationBundleM),
}


def _fields_to_dict(obj) -> dict:
    d = asdict(obj)
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in d.items()}


def _fields_from_dict(cls, d: dict):
    """Inverse of ``_fields_to_dict``: JSON lists become arrays again."""
    return cls(**{k: np.array(v) if isinstance(v, list) else v for k, v in d.items()})


def _stack_from_dicts(cls, rows: list[dict]):
    """A component stack from one ``_fields_to_dict`` dict per component."""
    return cls(*(np.array([r[f.name] for r in rows], dtype=float) for f in fields(cls)))


# ---------------------------------------------------------------------------
# Mixture specifications
# ---------------------------------------------------------------------------

def mixture_spec_to_dict(spec: MixtureSpec) -> dict:
    comps = [
        {"type": "mnig" if isinstance(c, MNIGParams) else "unig", **_fields_to_dict(c)}
        for c in spec.components
    ]
    return {"weights": spec.weights.tolist(), "components": comps}


def mixture_spec_from_dict(d: dict) -> MixtureSpec:
    comps = []
    for c in d["components"]:
        fields = dict(c)
        kind = fields.pop("type", "unig")
        if kind not in _COMPONENT_TYPES:
            raise ValueError(f"unknown component type {kind!r}")
        comps.append(_fields_from_dict(_COMPONENT_TYPES[kind], fields))
    return MixtureSpec(weights=d["weights"], components=comps)


# ---------------------------------------------------------------------------
# Fit results and run records
# ---------------------------------------------------------------------------

def result_to_dict(result: FitResult) -> dict:
    rows = range(result.n_components)
    return {
        "model": result.model,
        "surviving": list(result.surviving),
        "hypers": [_fields_to_dict(take(result.hypers, g)) for g in rows],
        "bundles": [_fields_to_dict(take(result.bundles, g)) for g in rows],
        "resp": result.resp.tolist(),
        "labels": result.labels.tolist(),
        "iterations": result.iterations,
        "converged": result.converged,
        "trace": result.trace,
        "flags": list(result.flags),
    }


def result_from_dict(d: dict) -> FitResult:
    hyper_cls, bundle_cls = _RESULT_TYPES[d["model"]]
    return FitResult(
        model=d["model"],
        surviving=list(d["surviving"]),
        hypers=_stack_from_dicts(hyper_cls, d["hypers"]),
        bundles=_stack_from_dicts(bundle_cls, d["bundles"]),
        resp=np.array(d["resp"]),
        labels=np.array(d["labels"], dtype=int),
        iterations=d["iterations"],
        converged=d["converged"],
        trace=list(d["trace"]),
        flags=list(d["flags"]),
    )


def file_fingerprint(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def make_run_record(
    config: FitConfig,
    result: FitResult,
    fingerprint: str,
    timings: dict,
    columns: list[str] | None = None,
    label_column: str | None = None,
) -> dict:
    """The run record of a fit.  Its ``config`` holds the fit settings and
    the CSV selection (``columns``, ``label_column``) the data were read
    with."""
    return {
        "config": {**asdict(config), "columns": columns, "label_column": label_column},
        "dataset_fingerprint": fingerprint,
        "result": result_to_dict(result),
        "timings": timings,
    }


def run_record_hash(record: dict) -> str:
    """Hash of the reproducible payload (everything except timings): the
    sha256 of its compact, sorted-key JSON.  The JSON is streamed into the
    hash chunk by chunk and never held whole, so hashing a record takes
    next to no memory beside it."""
    payload = {k: v for k, v in record.items() if k != "timings"}
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256()
    for chunk in encoder.iterencode(payload):
        digest.update(chunk.encode())
    return digest.hexdigest()


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
