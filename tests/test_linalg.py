"""Dense SPD helpers, checked against numpy's native factorizations and a
column-by-column Cholesky."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from nigmix.linalg import (
    NotPositiveDefinite,
    as_spd,
    cholesky,
    spd_inverse_logdet,
    spd_inverse_logdet_jittered,
)
from tests_support_naive import cholesky_loop


def random_spd(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


class TestCholesky:
    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_matches_numpy(self, d):
        m = random_spd(d, d)
        assert np.allclose(cholesky(m), np.linalg.cholesky(m), atol=1e-10)
        assert np.allclose(cholesky(m), cholesky_loop(m), rtol=1e-13, atol=1e-13)

    def test_reports_pivot(self):
        cases = [
            (np.diag([1.0, 1.0, -1.0, 1.0]), 2),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), 0),
            (np.array([[1.0, np.nan], [np.nan, 1.0]]), 1),
            (np.diag([1.0, 1.0, np.nan]), 2),
        ]
        for m, pivot in cases:
            for factor in (cholesky, cholesky_loop):
                with pytest.raises(NotPositiveDefinite) as exc:
                    factor(m)
                assert exc.value.pivot_index == pivot

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestInverseLogdet:
    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_matches_numpy(self, d):
        m = random_spd(d, 100 + d)
        inv, logdet = spd_inverse_logdet(m)
        assert np.allclose(inv, np.linalg.inv(m), atol=1e-9)
        assert np.array_equal(inv, inv.T)
        assert logdet == pytest.approx(np.linalg.slogdet(m)[1], rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_equals_the_sum_of_triangles(self, d):
        # The inverse is its lower triangle plus the mirror of its strict
        # lower triangle, zeros of one sign included, and C-ordered.
        for m in (random_spd(d, 200 + d), np.diag(np.arange(1.0, d + 1.0))):
            inv, _ = spd_inverse_logdet(m)
            tri = np.tril(inv) + np.tril(inv, -1).T
            assert np.array_equal(inv, tri)
            assert np.array_equal(np.signbit(inv), np.signbit(tri))
            assert np.array_equal(inv, inv.T) and inv.flags.c_contiguous

    def test_reports_pivot(self):
        for m, pivot in [
            (np.diag([1.0, 1.0, -1.0, 1.0]), 2),
            (np.array([[1.0, np.nan], [np.nan, 1.0]]), 1),
        ]:
            with pytest.raises(NotPositiveDefinite) as exc:
                spd_inverse_logdet(m)
            assert exc.value.pivot_index == pivot

    def test_jitter_recovers_near_singular(self):
        # Rank-deficient up to rounding; the scaled jitter must rescue it.
        v = np.array([1.0, 2.0, 3.0])
        m = np.outer(v, v) + 1e-14 * np.eye(3)
        inv, logdet = spd_inverse_logdet_jittered(m)
        assert np.all(np.isfinite(inv))
        assert np.isfinite(logdet)

    def test_jitter_gives_up_on_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_inverse_logdet_jittered(np.diag([1.0, -5.0]))


class TestSmallHelpers:
    def test_as_spd_symmetrizes(self):
        m = random_spd(3, 11)
        skewed = m + 1e-14 * np.triu(np.ones((3, 3)))
        out = as_spd(skewed)
        assert np.allclose(out, out.T)

    def test_as_spd_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            as_spd(np.array([[1.0, 5.0], [0.0, 1.0]]))


class TestStacks:
    """A (k, d, d) stack gives each matrix the bits it gets alone."""

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_stack_equals_one_matrix_at_a_time(self, d):
        good = np.array([random_spd(d, 300 + 10 * d + i) for i in range(5)])
        # Singular: the jittered inverse factors it only on its retry, and
        # the other matrices of the stack take none.
        singular = good.copy()
        singular[2] = np.diag(np.r_[np.ones(d - 1), 0.0])
        assert np.array_equal(cholesky(good), [cholesky(m) for m in good])
        for inverse, stack in [(spd_inverse_logdet, good),
                               (spd_inverse_logdet_jittered, good),
                               (spd_inverse_logdet_jittered, singular)]:
            inv, logdet = inverse(stack)
            assert inv.shape == (5, d, d) and inv.flags.c_contiguous
            for i, m in enumerate(stack):
                one, one_logdet = inverse(m)
                assert np.array_equal(inv[i], one) and logdet[i] == one_logdet
        with pytest.raises(NotPositiveDefinite):
            spd_inverse_logdet(singular)

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_reports_the_pivot_of_the_first_bad_matrix(self, d):
        good = random_spd(d, 400 + d)
        negative = np.diag(np.r_[np.ones(d - 1), -1.0])
        nan_first = np.eye(d)
        nan_first[0, 0] = np.nan
        cases = [(negative, d - 1), (nan_first, 0)]
        if d > 1:
            nan_last = np.eye(d)
            nan_last[0, -1] = nan_last[-1, 0] = np.nan
            cases.append((nan_last, d - 1))
        for bad, pivot in cases:
            # A second bad matrix, with another pivot, comes after the first.
            later = nan_first if bad is negative else negative
            for stack in (np.array([good, bad, good]), np.array([good, bad, later])):
                for factor in (cholesky, spd_inverse_logdet,
                               spd_inverse_logdet_jittered):
                    with pytest.raises(NotPositiveDefinite) as exc:
                        factor(stack)
                    assert exc.value.pivot_index == pivot
                    # Only the jittered inverse, which redoes the stack one
                    # matrix at a time, names the matrix.
                    jittered = factor is spd_inverse_logdet_jittered
                    assert exc.value.row == (1 if jittered else None)


def test_scipy_linalg_and_special_never_load(tmp_path):
    # A fresh process, since this one may have imported scipy.linalg and
    # scipy.special: no command, univariate or multivariate, loads either
    # package (nigmix reads scipy.special's compiled ufuncs only).
    script = textwrap.dedent("""
        import sys
        from nigmix.cli import main

        def check(step):
            assert "scipy.linalg" not in sys.modules, step
            assert "scipy.special" not in sys.modules, step

        check("import nigmix.cli")
        for preset in ("study1", "study4", "study5"):
            argv = ["simulate", preset + ".csv", "--preset", preset, "--seed", "1003"]
            assert main(argv) == 0
            check("simulate --preset " + preset)
        assert main(["fit", "study1.csv", "s1.json", "--label-column", "label"]) in (0, 2)
        check("unig fit")
        # Converges, so density-grid takes its record.
        assert main(["fit", "study4.csv", "s4.json", "--label-column", "label",
                     "--model", "mnig", "--g-init", "5", "--seed", "3"]) == 0
        check("mnig fit")
        assert main(["density-grid", "s4.json", "grid.csv", "--range", "-2", "2",
                     "--points", "4"]) == 0
        check("density-grid on a d = 2 mnig record")
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
