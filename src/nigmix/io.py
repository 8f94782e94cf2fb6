"""Every nigmix file format: CSV samples and tables, JSON specs and run
records, and the digests of both.

File conventions: matrices travel as headered CSV (UTF-8, comma separated),
a simulated sample with CRLF rows and a table (fit labels, a density
lattice) with LF rows; models, configurations, and run records travel as
JSON with stable field names.  Result payload hashes exclude wall-clock
timings so reruns with identical inputs are hash-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from ._vbcore import FitResult
from .config import FitConfig
from .distributions import LabeledSample, MixtureSpec, MNIGParams, UNIGParams
from .evaluation import canonicalize
from .vb_mnig import ComponentHyperM, ExpectationBundleM
from .vb_unig import ComponentHyper, ExpectationBundle

__all__ = [
    "ingest_csv",
    "whole_labels",
    "write_sample_csv",
    "write_table",
    "mixture_spec_to_dict",
    "mixture_spec_from_dict",
    "result_to_dict",
    "result_from_dict",
    "make_run_record",
    "run_record_hash",
    "json_sha256",
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
    """One observation per row, trailing integer label column.  Rows end
    in the csv module's CRLF, which the golden run-record hashes pin
    through ``dataset_fingerprint``."""
    obs = np.atleast_2d(sample.observations)
    d = obs.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(d)] + ["label"])
        for row, lab in zip(obs, sample.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])


def write_table(path, header: list[str], columns: list[np.ndarray]) -> None:
    """A headered CSV with LF line ends from equal-length 1-d ``columns``,
    each cell the repr of its value: integers and doubles exact."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        rows = zip(*(c.tolist() for c in columns))
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


# The dataclasses behind the ``type`` tag of a spec component and the
# ``model`` tag of a fit result.
_COMPONENT_TYPES = {"unig": UNIGParams, "mnig": MNIGParams}
_RESULT_TYPES = {
    "unig": (ComponentHyper, ExpectationBundle),
    "mnig": (ComponentHyperM, ExpectationBundleM),
}


def _encode(obj, row=()) -> dict:
    """The fields of the dataclass ``obj`` as JSON values, each array taken
    whole or, in a component stack, at one component's ``row``."""
    return {k: v[row].tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(obj).items()}


def _stack_from_dicts(cls, rows: list[dict]):
    """A component stack from one ``_encode`` dict per component."""
    return cls(*(np.array([r[f.name] for r in rows], dtype=float) for f in fields(cls)))


# ---------------------------------------------------------------------------
# Mixture specifications
# ---------------------------------------------------------------------------

def mixture_spec_to_dict(spec: MixtureSpec) -> dict:
    kind = "mnig" if spec.is_multivariate else "unig"
    comps = [{"type": kind, **_encode(c)} for c in spec.components]
    return {"weights": spec.weights.tolist(), "components": comps}


def mixture_spec_from_dict(d: dict) -> MixtureSpec:
    comps = []
    for c in d["components"]:
        params = dict(c)
        kind = params.pop("type", "unig")
        if kind not in _COMPONENT_TYPES:
            raise ValueError(f"unknown component type {kind!r}")
        comps.append(_COMPONENT_TYPES[kind](**params))
    return MixtureSpec(weights=d["weights"], components=comps)


# ---------------------------------------------------------------------------
# Fit results and run records
# ---------------------------------------------------------------------------

def result_to_dict(result: FitResult) -> dict:
    """The fields of ``result``, its stacks as one dict per component."""
    rows = range(result.n_components)
    return {
        **_encode(result),
        "hypers": [_encode(result.hypers, g) for g in rows],
        "bundles": [_encode(result.bundles, g) for g in rows],
    }


def result_from_dict(d: dict) -> FitResult:
    hyper_cls, bundle_cls = _RESULT_TYPES[d["model"]]
    return FitResult(**{
        **d,
        "hypers": _stack_from_dicts(hyper_cls, d["hypers"]),
        "bundles": _stack_from_dicts(bundle_cls, d["bundles"]),
        "resp": np.array(d["resp"]),
        "labels": np.array(d["labels"], dtype=int),
    })


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
        "config": {**_encode(config), "columns": columns, "label_column": label_column},
        "dataset_fingerprint": fingerprint,
        "result": result_to_dict(result),
        "timings": timings,
    }


def run_record_hash(record: dict) -> str:
    """Hash of the reproducible payload (everything except timings)."""
    return json_sha256({k: v for k, v in record.items() if k != "timings"})


def json_sha256(obj) -> str:
    """The sha256 of ``obj``'s compact, sorted-key JSON, streamed into the
    hash chunk by chunk: a run record's JSON is never held whole."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256()
    for chunk in encoder.iterencode(obj):
        digest.update(chunk.encode())
    return digest.hexdigest()


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
