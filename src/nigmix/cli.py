"""Command-line front-end.

Subcommands: ``fit``, ``simulate``, ``evaluate``, ``density-grid``, and
``reproduce`` (runs a named study preset end to end).  Exit codes: 0
success, 2 fit did not converge, 3 input error, 4 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import datasets
from ._vbcore import DegenerateFit
from .config import CHOICES, FitConfig, InvalidData
from .distributions import sample_mixture
from .evaluation import adjusted_rand_index, cross_tab, merge_labels
from .io import (
    file_fingerprint,
    ingest_csv,
    make_run_record,
    mixture_spec_from_dict,
    mixture_spec_to_dict,
    read_json,
    result_from_dict,
    run_record_hash,
    whole_labels,
    write_json,
    write_sample_csv,
)
from .linalg import NotPositiveDefinite
from .presets import STUDIES, simulation_preset
from .vb_mnig import fit_m
from .vb_unig import fit

EXIT_OK = 0
EXIT_NONCONVERGENCE = 2
EXIT_INPUT = 3
EXIT_DEGENERATE = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def run_fit(config: FitConfig, data: np.ndarray):
    """Fit ``data`` with the engine ``config.model`` names; the engine checks
    the input and raises ``InvalidData``, which ``main`` maps to exit 3."""
    # Read from the module globals, which a tracer rebinds; a dict of the
    # two engines would keep calling the unwrapped functions.
    return (fit if config.model == "unig" else fit_m)(data, config)


def replicate_seeds(n: int) -> list[tuple[int, int]]:
    """The (sample seed, fit seed) pairs of replicates 0..n-1."""
    return [(1000 + r, r) for r in range(n)]


def census(name: str, seeds) -> SimpleNamespace:
    """Fit the simulation study ``name``, drawn with its exact counts, once
    per (sample seed, fit seed) pair in ``seeds``; summarize the fits and
    keep each one and its ARI, in seed order, as ``fits`` and ``aris``."""
    study = STUDIES[name]
    spec, counts = study.preset()
    fits, aris = [], []
    for sample_seed, fit_seed in seeds:
        sample = sample_mixture(spec, sum(counts), seed=sample_seed, counts=counts)
        config = FitConfig(model=study.model, g_init=study.g_init, seed=fit_seed)
        fits.append(run_fit(config, sample.observations))
        aris.append(adjusted_rand_index(sample.labels, fits[-1].labels))
    return SimpleNamespace(
        name=name, runs=len(fits), converged=sum(f.converged for f in fits),
        g_counts=Counter(f.n_components for f in fits),
        mean_ari=np.mean(aris), sd_ari=np.std(aris),
        median_iterations=np.median([f.iterations for f in fits]),
        fits=fits, aris=aris,
    )


def census_line(c: SimpleNamespace) -> str:
    """The line ``reproduce`` prints and the study acceptance tests report."""
    return (
        f"{c.name}: G=2 in {c.g_counts[2]}/{c.runs} runs, "
        f"converged {c.converged}/{c.runs}, mean ARI {c.mean_ari:.3f} "
        f"(sd {c.sd_ari:.3f}), median iterations {c.median_iterations:g}"
    )


def _check_output(path: Path, source) -> None:
    """Exit 3 before a command reads or computes anything, when ``path``
    cannot take a new file or would overwrite the input ``source`` (None
    when there is none; a missing input is left to the command's read)."""
    if not path.parent.is_dir():
        raise CliError(f"cannot write {path}: {path.parent} is not a directory")
    if path.is_dir():
        raise CliError(f"cannot write {path}: it is a directory")
    if (source is not None and path.exists() and Path(source).exists()
            and path.samefile(source)):
        raise CliError(f"cannot write {path}: it is the input file")


def cmd_fit(args) -> int:
    config = FitConfig(**{f.name: getattr(args, f.name) for f in fields(FitConfig)})
    columns = args.columns.split(",") if args.columns else None
    out = Path(args.output)
    _check_output(out, args.input)  # first: "." or "/" has no suffix to swap
    labels_path = out.with_suffix(".labels.csv")
    _check_output(labels_path, args.input)
    try:
        data, _ = ingest_csv(args.input, columns, args.label_column)
    except (OSError, ValueError) as exc:
        raise CliError(f"ingestion failed: {exc}") from exc
    t0 = time.perf_counter()
    result = run_fit(config, data)
    elapsed = time.perf_counter() - t0

    record = make_run_record(
        config, result, file_fingerprint(args.input), {"fit_seconds": elapsed},
        columns, args.label_column,
    )
    write_json(out, record)
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.write("label\n")
        fh.writelines(f"{int(v)}\n" for v in result.labels)
    print(
        f"fit: model={config.model} G={result.n_components} "
        f"iterations={result.iterations} converged={result.converged} "
        f"hash={run_record_hash(record)[:16]}"
    )
    print(f"wrote {out} and {labels_path}")
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def cmd_simulate(args) -> int:
    if (args.preset is None) == (args.spec is None):
        raise CliError("exactly one of --preset and --spec is required")
    out = Path(args.output)
    _check_output(out, args.spec)
    sidecar_path = out.with_suffix(".spec.json")
    _check_output(sidecar_path, args.spec)
    if args.preset:
        spec, counts = simulation_preset(args.preset)
        if args.n is not None and args.n != sum(counts):
            counts = None  # fall back to categorical draws at the requested n
        n = args.n if args.n is not None else sum(counts)
    else:
        try:
            spec = mixture_spec_from_dict(read_json(args.spec))
        except (
            OSError, KeyError, NotPositiveDefinite, TypeError, ValueError
        ) as exc:
            raise CliError(f"invalid mixture spec: {exc}") from exc
        counts = None
        n = args.n if args.n is not None else 300
    try:
        sample = sample_mixture(spec, n, args.seed, counts=counts)
    except ValueError as exc:
        raise CliError(f"invalid settings: {exc}") from exc
    write_sample_csv(out, sample)
    sidecar = {
        "spec": mixture_spec_to_dict(spec),
        "seed": args.seed,
        "n": n,
        "counts": list(counts) if counts else None,
        "preset": args.preset,
    }
    write_json(sidecar_path, sidecar)
    print(f"wrote {n} rows to {out} (sidecar {sidecar_path})")
    return EXIT_OK


def _read_labels(path) -> np.ndarray:
    try:
        data, _ = ingest_csv(path)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read labels from {path}: {exc}") from exc
    if data.shape[1] != 1:
        raise CliError(f"{path}: expected a single label column")
    if data.shape[0] < 2:
        raise CliError(f"{path}: expected at least two labels")
    labels = whole_labels(data[:, 0])
    if labels is None:
        raise CliError(f"{path}: labels must be integers below 2**53")
    return labels


def cmd_evaluate(args) -> int:
    a = _read_labels(args.labels_a)
    b = _read_labels(args.labels_b)
    if a.shape[0] != b.shape[0]:
        raise CliError("label files have different lengths")
    if args.merge:
        try:
            groups = [set(map(int, grp.split("+"))) for grp in args.merge.split(",")]
            a = merge_labels(a, groups)
        except ValueError as exc:
            raise CliError(f"invalid --merge {args.merge!r}: {exc}") from exc
    ari = adjusted_rand_index(a, b)
    table = cross_tab(a, b)
    print(f"ARI: {ari:.6f}")
    print("cross-tabulation (rows = first file, cols = second):")
    for row in table:
        print("  " + " ".join(f"{int(v):5d}" for v in row))
    return EXIT_OK


def cmd_density_grid(args) -> int:
    from .vb_mnig import fitted_density_m
    from .vb_unig import fitted_density

    out = Path(args.output)
    _check_output(out, args.model_path)
    if args.points < 1:
        raise CliError("--points must be >= 1")
    if not np.isfinite(args.range + (args.range2 or [])).all():
        raise CliError("--range and --range2 must be finite")
    try:
        record = read_json(args.model_path)
        result = result_from_dict(record["result"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"cannot load model: {exc}") from exc
    if not result.converged:
        raise CliError("model did not converge", EXIT_NONCONVERGENCE)

    if result.model == "unig":
        ranges, header, density = [args.range], "x", fitted_density
    else:
        d = result.bundles.mu_bar.shape[-1]
        if d != 2:
            raise CliError(f"lattice export requires 2-dimensional models, got d={d}")
        ranges, header = [args.range, args.range2 or args.range], "x1,x2"
        density = fitted_density_m
    axes = (np.linspace(lo, hi, args.points) for lo, hi in ranges)
    grid = np.column_stack([a.reshape(-1) for a in np.meshgrid(*axes, indexing="ij")])
    try:
        values = density(result, grid).reshape(-1)
    except (NotPositiveDefinite, ValueError) as exc:
        # Bundle values that no NIG density has, such as a negative scale.
        raise CliError(f"invalid model: {exc}") from exc
    rows = np.column_stack([grid, values])
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(f"{header},density\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())
    print(f"wrote {out}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    """Run a named study end to end and print its headline numbers: a
    simulation study's census over ``--replicates`` (100 by default; study4
    and study5 default to one fit at sample seed 42, fit seed 0), or a real
    study's G, with the ARI against its truth labels when it has them."""
    name, study = args.study, STUDIES[args.study]
    if args.replicates is not None and args.replicates < 1:
        raise CliError("--replicates must be >= 1")
    if study.preset:
        single = args.replicates is None and name in ("study4", "study5")
        seeds = [(42, 0)] if single else replicate_seeds(args.replicates or 100)
        print(census_line(census(name, seeds)))
        return EXIT_OK
    try:
        data, labels = datasets.load(study)
    except ValueError as exc:
        raise CliError(f"cannot read dataset: {exc}") from exc
    result = run_fit(FitConfig(model=study.model, g_init=study.g_init, seed=0), data)
    line = f"{name}: G={result.n_components}"
    if study.merge_groups:
        truth = merge_labels(labels, study.merge_groups)
        line += f", merged-truth ARI {adjusted_rand_index(truth, result.labels):.3f}"
    elif labels is not None:
        line += f", ARI {adjusted_rand_index(labels, result.labels):.3f}"
    print(line)
    if study.merge_groups:
        print(cross_tab(labels, result.labels))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nigmix",
        description="Variational clustering with normal inverse Gaussian mixtures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a mixture to a CSV dataset")
    p.add_argument("input")
    p.add_argument("output")
    for f in fields(FitConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                       default=f.default, choices=CHOICES.get(f.name))
    p.add_argument("--columns", type=str, help="comma-separated column selection")
    p.add_argument("--label-column", type=str)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="draw a dataset from a mixture spec")
    p.add_argument("output")
    p.add_argument("--spec", help="mixture spec JSON")
    p.add_argument("--preset", choices=[n for n, s in STUDIES.items() if s.preset])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="compare two label files")
    p.add_argument("labels_a")
    p.add_argument("labels_b")
    p.add_argument(
        "--merge",
        help="merge groups applied to the first file, e.g. '1+4,2+3+7'",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("density-grid", help="export a fitted density on a grid")
    p.add_argument("model_path")
    p.add_argument("output")
    p.add_argument("--range", type=float, nargs=2, required=True)
    p.add_argument("--range2", type=float, nargs=2, default=None)
    p.add_argument("--points", type=int, default=512)
    p.set_defaults(func=cmd_density_grid)

    p = sub.add_parser("reproduce", help="run a named study preset end to end")
    p.add_argument("study", choices=list(STUDIES))
    p.add_argument("--replicates", type=int, default=None)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage; --help exits 0, a usage error 3.
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        # Numerical trouble ends a command through its exit code and one
        # error line; numpy's floating-point warnings would only add lines.
        with np.errstate(all="ignore"):
            return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (OSError, InvalidData) as exc:
        # A path that cannot be read or written, such as a missing dataset
        # (DatasetMissing is a FileNotFoundError) or a directory.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateFit as exc:
        print(f"error: degenerate fit: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except MemoryError as exc:
        # An input too large for memory, such as a vast density-grid lattice.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
