#!/usr/bin/env python3
"""Fetch or convert the real datasets used by the analyses.

The package does not bundle the Old Faithful, crabs, fish-catch, or enzyme
data.  This script populates the data directory that
``nigmix.datasets.data_dir`` names (./data by default, or $NIGMIX_DATA) in
one of two ways:

* ``--download``: pull the CSVs from public mirrors.  Requires outbound
  network access.
* ``--convert SRC.csv NAME``: normalize a CSV you exported yourself (for
  example from R: ``write.csv(faithful, "faithful_raw.csv")``) into the
  file ``NAME`` that ``nigmix.datasets.load`` reads.

Each file holds exactly the columns that its real study's entry in
``nigmix.presets.STUDIES`` names: the label column, if any, then the fit
columns.  A crabs export without a class4 column gets one from its sp and
sex columns, coding the species-by-sex cross as B-M=1, B-F=2, O-M=3, O-F=4.
The script runs from a checkout without installing the package.
"""

from __future__ import annotations

import argparse
import csv
import sys
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nigmix.datasets import data_dir  # noqa: E402
from nigmix.presets import STUDIES  # noqa: E402

SOURCES = {
    "faithful.csv": "https://vincentarelbundock.github.io/Rdatasets/csv/datasets/faithful.csv",
    "crabs.csv": "https://vincentarelbundock.github.io/Rdatasets/csv/MASS/crabs.csv",
    "fish.csv": "https://vincentarelbundock.github.io/Rdatasets/csv/rrcov/fish.csv",
    "enzyme.csv": "https://vincentarelbundock.github.io/Rdatasets/csv/mixAK/Enzyme.csv",
}

# The columns of each real study's file: its label column, then its fit
# columns.
COLUMNS = {
    study.file: [c for c in (study.label_column, *study.columns) if c]
    for study in STUDIES.values() if study.file
}

# Alternative header spellings seen in the wild, mapped to ours.
ALIASES = {
    "eruption": "eruptions",
    "wait": "waiting",
    "species": "Species",
    "length3": "Length3",
    "height": "Height",
    "width": "Width",
    "Activity": "activity",
    "enzyme": "activity",
}


_CRAB_CLASS = {("B", "M"): "1", ("B", "F"): "2", ("O", "M"): "3", ("O", "F"): "4"}


def normalize(rows: list[dict], target: str) -> list[dict]:
    keep = COLUMNS[target]
    out = []
    for row in rows:
        fixed = {}
        for key, value in row.items():
            if key is None:
                continue
            name = ALIASES.get(key.strip(), key.strip())
            fixed[name] = "" if value is None else value.strip()
        if target == "crabs.csv" and "class4" not in fixed:
            try:
                fixed["class4"] = _CRAB_CLASS[(fixed["sp"], fixed["sex"])]
            except KeyError:
                raise SystemExit(
                    "crabs.csv: need either a class4 column or sp/sex columns"
                ) from None
        missing = [c for c in keep if c not in fixed]
        if missing:
            raise SystemExit(
                f"{target}: source is missing columns {missing}; "
                f"found {sorted(fixed)}"
            )
        out.append({c: fixed[c] for c in keep})
    return out


def write_csv(path: Path, rows: list[dict], target: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS[target])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return list(csv.DictReader(fh))


def download_all() -> int:
    failures = 0
    for target, url in SOURCES.items():
        dest = data_dir() / target
        try:
            with urllib.request.urlopen(url, timeout=30) as resp:
                text = resp.read().decode("utf-8-sig")
        except OSError as exc:
            print(f"FAILED {target}: {exc}", file=sys.stderr)
            failures += 1
            continue
        rows = list(csv.DictReader(text.splitlines()))
        write_csv(dest, normalize(rows, target), target)
    if failures:
        print(
            f"{failures} download(s) failed; export the data from R and use "
            "--convert instead",
            file=sys.stderr,
        )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--download", action="store_true",
                      help="download every dataset from public mirrors")
    mode.add_argument("--convert", nargs=2, metavar=("SRC", "NAME"),
                      help="normalize a local CSV into data/NAME")
    args = parser.parse_args(argv)

    if args.download:
        return download_all()
    src, name = args.convert
    if name not in COLUMNS:
        parser.error(f"NAME must be one of {sorted(COLUMNS)}")
    rows = normalize(read_csv(Path(src)), name)
    write_csv(data_dir() / name, rows, name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
