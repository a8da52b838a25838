from itertools import product
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mscca import (
    ClusterSpec,
    HierarchicalAssignment,
    KlCurve,
    SolverOptions,
    adjusted_rand_index,
    encode_dataset,
    encode_supplementary,
    gf_against_truth,
    goodness_of_fit,
    kl_select,
    select_k_per_class,
)
from mscca.errors import DegenerateGeometryError, ShapeError, SpecError
from mscca.simulation import GenSpec, generate_clustered
from mscca.solver import update_B, update_G


def brute_force_ari(a, b):
    """Pair-by-pair counting, straight from the definition."""
    n = len(a)
    together_a = together_b = together_both = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            together_a += sa
            together_b += sb
            together_both += sa and sb
    pairs = comb(n, 2)
    expected = together_a * together_b / pairs
    top = together_both - expected
    bottom = 0.5 * (together_a + together_b) - expected
    return 1.0 if bottom == 0 else top / bottom


def partitions_up_to(n, max_blocks):
    """All restricted-growth strings of length n with at most max_blocks."""
    out = []

    def grow(prefix, used):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for block in range(min(used + 1, max_blocks - 1) + 1):
            grow(prefix + [block], max(used, block))

    grow([0], 0)
    return out


class TestAdjustedRandIndex:
    def test_identical(self):
        assert adjusted_rand_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0

    def test_relabeled(self):
        assert adjusted_rand_index([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0

    def test_crossed(self):
        # hand evaluation of the pair-counting formula
        assert adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5)

    def test_symmetry_and_upper_bound(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 12))
            a = rng.integers(0, 3, size=n).tolist()
            b = rng.integers(0, 3, size=n).tolist()
            assert adjusted_rand_index(a, b) == pytest.approx(adjusted_rand_index(b, a))
            assert adjusted_rand_index(a, b) <= 1.0 + 1e-12

    def test_exhaustive_against_brute_force(self):
        for n in (3, 4, 5):
            parts = partitions_up_to(n, 3)
            for a in parts:
                for b in parts:
                    assert adjusted_rand_index(a, b) == pytest.approx(
                        brute_force_ari(a, b), abs=1e-12
                    )

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            adjusted_rand_index([1, 2], [1, 2, 3])


class TestGoodnessOfFit:
    def test_identical(self, rng):
        y = rng.normal(size=(3, 4))
        assert goodness_of_fit(y, y) == pytest.approx(1.0)

    def test_scale_invariant(self, rng):
        y = rng.normal(size=(3, 4))
        assert goodness_of_fit(y, 3.0 * y) == pytest.approx(1.0)

    def test_orthogonal_configurations(self):
        y = np.array([[1.0, 0.0], [0.0, 0.0]])
        h = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert goodness_of_fit(y, h) == 0.0

    def test_range_and_symmetry(self, rng):
        for _ in range(50):
            y = rng.normal(size=(4, 3))
            h = rng.normal(size=(4, 3))
            value = goodness_of_fit(y, h)
            assert 0.0 <= value <= 1.0
            assert value == pytest.approx(goodness_of_fit(h, y))

    def test_rotation_invariance(self, rng):
        y = rng.normal(size=(5, 2))
        h = rng.normal(size=(5, 2))
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert goodness_of_fit(y @ rot, h @ rot) == pytest.approx(goodness_of_fit(y, h))

    def test_matches_vectorized_cosine(self, rng):
        y = rng.normal(size=(3, 3))
        h = rng.normal(size=(3, 3))
        cos = float(y.ravel() @ h.ravel()) / (
            np.linalg.norm(y.ravel()) * np.linalg.norm(h.ravel())
        )
        assert goodness_of_fit(y, h) == pytest.approx(cos**2)

    def test_zero_configuration(self, rng):
        y = rng.normal(size=(2, 2))
        with pytest.raises(DegenerateGeometryError):
            goodness_of_fit(y, np.zeros((2, 2)))


class TestGfAgainstTruth:
    def _truth_setup(self):
        raw = [["a", "x"], ["a", "y"], ["b", "x"], ["b", "z"], ["c", "y"], ["c", "z"]] * 4
        ds = encode_dataset(raw)
        sup = encode_supplementary([["g1"] if i % 2 else ["g2"] for i in range(len(raw))])
        spec = ClusterSpec.uniform(sup, 2)
        clusters = np.array([[(i // 2) % 2] for i in range(len(raw))], dtype=np.int64)
        truth = HierarchicalAssignment(sup=sup, spec=spec, clusters=clusters)
        return ds, sup, truth

    def test_full_rank_truth_scores_one(self):
        ds, sup, truth = self._truth_setup()
        p = ds.total_categories - ds.n_vars
        b = update_B(truth, ds, p)
        g = update_G(truth, ds, b)
        solution = SimpleNamespace(assignment=truth, centers=g, quantifications=b)
        assert gf_against_truth(solution, truth, ds) == pytest.approx(1.0, abs=1e-6)

    def test_fitted_labels_permuted_within_class_score_one(self):
        # fitted cluster labels inside a class are arbitrary: swapping them
        # in one class describes the same fit and must score the same
        raw = [["a", "x"], ["a", "y"], ["b", "x"], ["b", "z"], ["c", "y"], ["c", "z"]] * 4
        ds = encode_dataset(raw)
        sup = encode_supplementary([["g1"] if i % 2 else ["g2"] for i in range(len(raw))])
        clusters = np.array([[0 if row[0] == "a" else 1] for row in raw], dtype=np.int64)
        truth = HierarchicalAssignment(sup=sup, spec=ClusterSpec.uniform(sup, 2), clusters=clusters)
        p = ds.total_categories - ds.n_vars
        swap = truth.clusters.copy()
        in_g1 = sup.codes[:, 0] == 0
        swap[in_g1, 0] = 1 - swap[in_g1, 0]
        fitted = truth.with_clusters(swap)
        b = update_B(fitted, ds, p)
        g = update_G(fitted, ds, b)
        solution = SimpleNamespace(assignment=fitted, centers=g, quantifications=b)
        assert gf_against_truth(solution, truth, ds) == pytest.approx(1.0, abs=1e-6)

    def test_zero_centers_degenerate(self):
        ds, sup, truth = self._truth_setup()
        solution = SimpleNamespace(
            assignment=truth,
            centers=np.zeros((truth.spec.k_total, 2)),
            quantifications=np.zeros((ds.total_categories, 2)),
        )
        with pytest.raises(DegenerateGeometryError):
            gf_against_truth(solution, truth, ds)

    def test_independent_truth_degenerate(self):
        # clusters carry no category information: residual table is zero
        ds = encode_dataset([["a"], ["b"], ["a"], ["b"]])
        sup = encode_supplementary([["x"], ["x"], ["x"], ["x"]])
        spec = ClusterSpec(counts=((2,),))
        truth = HierarchicalAssignment(
            sup=sup, spec=spec, clusters=np.array([[0], [0], [1], [1]])
        )
        solution = SimpleNamespace(
            assignment=truth,
            centers=np.ones((2, 1)),
            quantifications=np.ones((2, 1)),
        )
        with pytest.raises(DegenerateGeometryError):
            gf_against_truth(solution, truth, ds)

    def test_mismatched_counts_rejected(self):
        ds, sup, truth = self._truth_setup()
        other = HierarchicalAssignment(
            sup=sup,
            spec=ClusterSpec.uniform(sup, 1),
            clusters=np.zeros((sup.n_obs, sup.n_sup), dtype=np.int64),
        )
        solution = SimpleNamespace(
            assignment=other,
            centers=np.ones((other.spec.k_total, 2)),
            quantifications=np.ones((ds.total_categories, 2)),
        )
        with pytest.raises(ShapeError):
            gf_against_truth(solution, truth, ds)


class TestKlSelect:
    def test_hand_example_elbow_at_three(self):
        # DIFF = (20, 50, -6, -4) so the ratio peaks at K = 3
        curve = KlCurve(k_values=(1, 2, 3, 4, 5), w_values=(100, 40, 10, 9, 8), nu=2)
        assert kl_select(curve) == 3

    def test_scale_invariant(self):
        base = KlCurve(k_values=(1, 2, 3, 4, 5), w_values=(100, 40, 10, 9, 8), nu=2)
        scaled = KlCurve(
            k_values=(1, 2, 3, 4, 5),
            w_values=tuple(17.3 * w for w in (100, 40, 10, 9, 8)),
            nu=2,
        )
        assert kl_select(base) == kl_select(scaled)

    def test_monotone_curve_total_function(self):
        w = tuple(100.0 * 0.5**i for i in range(6))
        curve = KlCurve(k_values=tuple(range(1, 7)), w_values=w, nu=2)
        assert kl_select(curve) in range(2, 6)

    def test_short_curve_rejected(self):
        curve = KlCurve(k_values=(1, 2, 3), w_values=(10.0, 5.0, 2.0), nu=2)
        with pytest.raises(SpecError):
            kl_select(curve)

    def test_curve_validation(self):
        with pytest.raises(SpecError):
            KlCurve(k_values=(1, 3, 4, 5), w_values=(4.0, 3.0, 2.0, 1.0), nu=2)
        with pytest.raises(SpecError):
            KlCurve(k_values=(1, 2, 3, 4), w_values=(4.0, -3.0, 2.0, 1.0), nu=2)

    def test_tie_goes_to_smaller_k(self):
        # DIFF = (4, 2, 1) so both interior ratios equal 2; pick K = 2
        curve = KlCurve(k_values=(1, 2, 3, 4), w_values=(10.0, 3.0, 4.0 / 3.0, 0.75), nu=2)
        k = kl_select(curve)
        assert k == 2


class TestSelectKPerClass:
    def test_recovers_planted_cluster_count(self):
        ds, truth = generate_clustered(
            GenSpec(q=4, k=3, n_obs=240, n_vars=6, high_prob=0.95, active_ratio=1.0, seed=12)
        )
        sup = encode_supplementary([["only"]] * 240)
        result = select_k_per_class(
            ds, sup, k_max=5, options=SolverOptions(n_starts=10, seed=3)
        )
        assert result[(0, 0)].chosen == 3

    def test_k_max_floor(self, rng):
        ds = encode_dataset([["a"], ["b"], ["a"], ["b"]])
        sup = encode_supplementary([["x"]] * 4)
        with pytest.raises(SpecError):
            select_k_per_class(ds, sup, k_max=3)

    def test_oversized_k_max_rejected_before_any_fit(self, monkeypatch):
        calls = []

        def recording_fit(*args, **kwargs):
            calls.append(args)
            raise AssertionError("no fit may run")

        monkeypatch.setattr("mscca.solver.fit_cluster_ca", recording_fit)
        # the second class of the second variable is the only one too small
        ds = encode_dataset([["a"], ["b"]] * 5)
        sup = encode_supplementary(
            [["x", "big"]] * 5 + [["y", "big"]] * 2 + [["y", "small"]] * 3, names=["v", "w"]
        )
        with pytest.raises(SpecError, match=r"k_max=4 exceeds the 3 members of class 'small' of 'w'"):
            select_k_per_class(ds, sup, k_max=4)
        assert calls == []
