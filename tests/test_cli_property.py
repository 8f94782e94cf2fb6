"""Properties: every input of finite doubles gets a documented outcome.

``nigmix fit`` on any CSV of finite doubles, with or without a label
column, whose cells may be whole numbers, decimals, infinities, ``nan``
or text, and with rows cut short anywhere, exits 0 (converged), 2 (not
converged), 3 (input error) or 4 (numerical degeneracy), and an error exit
prints one ``error:`` line; it never raises.  The library's
``fit`` and ``fit_m`` on any such array return a ``FitResult`` or raise
``InvalidData`` or ``DegenerateFit``, and nothing else.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nigmix import DegenerateFit, FitConfig, FitResult, InvalidData, fit, fit_m
from nigmix.cli import main

FINITE = st.floats(allow_nan=False, allow_infinity=False)
MODELS = st.sampled_from(["unig", "mnig"])
INIT_MODES = st.sampled_from(["random", "kmeans"])
G_INITS = st.integers(2, 4)
# Label cells: whole numbers, which a label column keeps, and every other
# kind of cell, which it codes by first appearance.
LABEL_CELLS = st.one_of(
    st.integers(-3, 3).map(str),
    FINITE.map(repr),
    st.sampled_from(["2.5", "inf", "-inf", "1e400", "nan", "cat"]),
)


def finite_rows(d):
    """Up to 40 rows of d finite doubles."""
    return st.lists(st.lists(FINITE, min_size=d, max_size=d), min_size=0, max_size=40)


@st.composite
def fit_cases(draw):
    d = draw(st.integers(1, 3))
    header = [f"x{j + 1}" for j in range(d)]
    model = draw(MODELS)
    flags = [
        "--model", model,
        "--init-mode", draw(INIT_MODES),
        "--g-init", str(draw(G_INITS)),
        "--max-iter", "20",
    ]
    if model == "unig":
        flags += ["--columns", "x1"]
    rows = [[repr(v) for v in row] for row in draw(finite_rows(d))]
    if draw(st.booleans()):
        # A label column at any place among the data columns.
        at = draw(st.integers(0, d))
        header.insert(at, "label")
        for row in rows:
            row.insert(at, draw(LABEL_CELLS))
        flags += ["--label-column", "label"]
    if rows:
        # Up to three rows stop early, before any cell, data or label.
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
            rows[i] = rows[i][: draw(st.integers(0, len(header) - 1))]
    return header, rows, flags


@settings(derandomize=True, deadline=None, max_examples=200)
@given(fit_cases())
def test_fit_exit_code_on_any_finite_csv(case):
    header, rows, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "data.csv"
        lines = [",".join(header)]
        lines += [",".join(row) for row in rows]
        csv_path.write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["fit", str(csv_path), str(Path(tmp) / "fit.json"), *flags])
    assert code in (0, 2, 3, 4)
    if code in (3, 4):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


@st.composite
def library_cases(draw):
    d = draw(st.integers(1, 3))
    data = np.array(draw(finite_rows(d)), dtype=float).reshape(-1, d)
    shape = draw(st.sampled_from(["(n,)", "(n, 1)", "(n, d)"]))
    if shape != "(n, d)":
        data = data[:, 0] if shape == "(n,)" else data[:, :1]
    config = FitConfig(
        model=draw(MODELS), init_mode=draw(INIT_MODES), g_init=draw(G_INITS),
        max_iter=20,
    )
    return draw(st.sampled_from([fit, fit_m])), data, config


@settings(derandomize=True, deadline=None, max_examples=200)
@given(library_cases())
def test_library_fit_outcome_on_any_finite_array(case):
    engine, data, config = case
    try:
        # Floating-point warnings are not outcomes; only what is raised is.
        with np.errstate(all="ignore"):
            result = engine(data, config)
    except (InvalidData, DegenerateFit):
        return
    assert isinstance(result, FitResult)
