"""Clustering-comparison utilities, including an exhaustive small-n sweep."""

import numpy as np
import pytest

from nigmix.evaluation import (
    adjusted_rand_index,
    canonicalize,
    cross_tab,
    merge_labels,
)
from tests_support_naive import ari_pair_oracle, set_partitions


class TestCanonicalize:
    def test_first_appearance_order(self):
        out = canonicalize([7, 7, 2, 9, 2])
        assert out.tolist() == [1, 1, 2, 3, 2]

    def test_idempotent(self):
        lab = [3, 1, 2, 1]
        once = canonicalize(lab)
        assert np.array_equal(canonicalize(once), once)


class TestCrossTab:
    def test_known_table(self):
        a = [1, 1, 2, 2, 3]
        b = [1, 2, 2, 2, 1]
        table = cross_tab(a, b)
        assert table.tolist() == [[1, 1], [0, 2], [1, 0]]

    def test_marginals(self):
        rng = np.random.default_rng(0)
        a = rng.integers(1, 5, 60)
        b = rng.integers(1, 4, 60)
        table = cross_tab(a, b)
        assert table.sum() == 60
        for g in range(1, 5):
            assert table[g - 1].sum() == (a == g).sum()


class TestMergeLabels:
    def test_disjoint_groups(self):
        lab = [1, 2, 3, 4, 5, 2]
        out = merge_labels(lab, [{1, 4}, {2, 3}])
        # {1,4} -> one class, {2,3} -> another, 5 alone.
        assert out[0] == out[3]
        assert out[1] == out[2] == out[5]
        assert len({out[0], out[1], out[4]}) == 3

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            merge_labels([1, 2, 3], [{1, 2}, {2, 3}])


class TestARI:
    def test_identity_is_one(self):
        rng = np.random.default_rng(1)
        lab = rng.integers(1, 6, 40)
        if len(np.unique(lab)) > 1:
            assert adjusted_rand_index(lab, lab) == pytest.approx(1.0)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.integers(1, 5, 50)
        b = rng.integers(1, 4, 50)
        perm = {1: 9, 2: 4, 3: 7, 4: 1}
        b2 = np.array([perm[int(v)] for v in b])
        assert adjusted_rand_index(a, b) == pytest.approx(
            adjusted_rand_index(a, b2), abs=1e-15
        )

    def test_degenerate_partitions(self):
        with pytest.warns(UserWarning):
            assert adjusted_rand_index([1, 1, 1], [1, 1, 1]) == 0.0
        singles_vs_lump = adjusted_rand_index([1, 2, 3], [1, 1, 1])
        assert singles_vs_lump == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_cross_product(self, n):
        parts = [np.array(p) + 1 for p in set_partitions(n)]
        for a in parts:
            for b in parts:
                import warnings

                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    got = adjusted_rand_index(a, b)
                ref = ari_pair_oracle(a.tolist(), b.tolist())
                assert got == pytest.approx(ref, abs=1e-12)
                assert got <= 1.0 + 1e-12

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_exhaustive_against_fixed_partners(self, n):
        import warnings

        parts = [np.array(p) + 1 for p in set_partitions(n)]
        partners = [
            np.arange(1, n + 1),            # all singletons
            np.ones(n, dtype=int),          # one lump
            np.array([1, 2] * (n // 2) + [1] * (n % 2)),
        ]
        for a in parts:
            shifted = np.roll(a, 1)         # cyclic-shift neighbor
            for b in list(partners) + [shifted, a]:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    got = adjusted_rand_index(a, b)
                ref = ari_pair_oracle(a.tolist(), b.tolist())
                assert got == pytest.approx(ref, abs=1e-12)
