"""Property: every CSV of finite doubles gets a documented exit code.

``nigmix fit`` on any such file exits 0 (converged), 2 (not converged),
3 (input error) or 4 (numerical degeneracy), and an error exit prints one
``error:`` line; it never raises.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from nigmix.cli import main

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def fit_cases(draw):
    d = draw(st.integers(1, 3))
    rows = draw(
        st.lists(st.lists(FINITE, min_size=d, max_size=d), min_size=0, max_size=40)
    )
    model = draw(st.sampled_from(["unig", "mnig"]))
    flags = [
        "--model", model,
        "--init-mode", draw(st.sampled_from(["random", "kmeans"])),
        "--g-init", str(draw(st.integers(2, 4))),
        "--max-iter", "20",
    ]
    if model == "unig":
        flags += ["--columns", "x1"]
    return d, rows, flags


@settings(derandomize=True, deadline=None, max_examples=200)
@given(fit_cases())
def test_fit_exit_code_on_any_finite_csv(case):
    d, rows, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "data.csv"
        lines = [",".join(f"x{j + 1}" for j in range(d))]
        lines += [",".join(repr(v) for v in row) for row in rows]
        csv_path.write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["fit", str(csv_path), str(Path(tmp) / "fit.json"), *flags])
    assert code in (0, 2, 3, 4)
    if code in (3, 4):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
