"""Dense SPD helpers, checked against numpy's native factorizations and a
column-by-column Cholesky."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from nigmix.distributions import sample_mixture
from nigmix.io import write_sample_csv
from nigmix.linalg import (
    NotPositiveDefinite,
    as_spd,
    cholesky,
    spd_inverse_logdet,
    spd_inverse_logdet_jittered,
)
from nigmix.presets import simulation_preset
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


def test_lapack_loads_at_first_factorization(tmp_path):
    # A fresh process, since this one has imported scipy.linalg already: a
    # univariate run never loads it, and an mnig fit loads it and succeeds.
    spec, counts = simulation_preset("study5")
    write_sample_csv(tmp_path / "s5.csv",
                     sample_mixture(spec, sum(counts), seed=4, counts=counts))
    script = textwrap.dedent("""
        import sys
        from nigmix.cli import main

        def lapack_loaded():
            return "scipy.linalg" in sys.modules

        assert not lapack_loaded(), "import nigmix.cli"
        assert main(["simulate", "s1.csv", "--preset", "study1"]) == 0
        assert not lapack_loaded(), "simulate --preset study1"
        assert main(["fit", "s1.csv", "s1.json", "--label-column", "label"]) in (0, 2)
        assert not lapack_loaded(), "unig fit"
        assert main(["fit", "s5.csv", "s5.json", "--label-column", "label",
                     "--model", "mnig"]) in (0, 2)
        assert lapack_loaded(), "mnig fit"
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
