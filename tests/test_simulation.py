import concurrent.futures
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mscca import (
    GenSpec,
    StudyDesign,
    SupGenSpec,
    adjusted_rand_index,
    condition_label,
    generate_clustered,
    generate_illustration,
    generate_supplementary,
    run_study,
    summarize_study,
)
from mscca import simulation
from mscca.errors import ConfigError, SpecError
from mscca.simulation import class_probabilities, signal_distributions, _true_assignment


class TestSignalDistributions:
    def test_rows_sum_to_one_and_low_mass_exact(self, rng):
        for hp in (0.5, 0.8, 0.95):
            signal, probs = signal_distributions(rng, q=6, k=3, high_prob=hp)
            assert len(set(signal.tolist())) == 3
            assert_allclose(probs.sum(axis=1), np.ones(3), atol=1e-12)
            for c in range(3):
                assert probs[c, signal[c]] == pytest.approx(hp, abs=1e-15)
                low = probs[c].sum() - probs[c, signal[c]]
                assert low == pytest.approx(1.0 - hp, abs=1e-12)

    def test_too_few_categories(self, rng):
        with pytest.raises(SpecError):
            signal_distributions(rng, q=2, k=3, high_prob=0.8)


class TestGenerateClustered:
    def test_deterministic(self):
        spec = GenSpec(q=5, k=2, n_obs=50, n_vars=4, seed=42)
        d1, t1 = generate_clustered(spec)
        d2, t2 = generate_clustered(spec)
        assert d1.codes.tolist() == d2.codes.tolist()
        assert t1.tolist() == t2.tolist()

    def test_signal_frequency_near_high_prob(self):
        # aggregated over (active variable, cluster) cells, the modal
        # category frequency matches the generative probability at N=300
        spec = GenSpec(q=5, k=2, n_obs=300, n_vars=10, high_prob=0.8, seed=3)
        ds, truth = generate_clustered(spec)
        shares = []
        for j in range(spec.n_active):
            for c in range(spec.k):
                rows = ds.codes[truth == c, j]
                shares.append(np.bincount(rows).max() / rows.size)
        assert float(np.mean(shares)) == pytest.approx(0.8, abs=0.05)
        # and no single cell strays far from it
        assert float(np.abs(np.array(shares) - 0.8).max()) < 0.1

    def test_modal_categories_distinct_across_clusters(self):
        spec = GenSpec(q=5, k=3, n_obs=300, n_vars=6, high_prob=0.9, seed=11)
        ds, truth = generate_clustered(spec)
        for j in range(spec.n_active):
            modal = [
                int(np.bincount(ds.codes[truth == c, j], minlength=ds.q[j]).argmax())
                for c in range(spec.k)
            ]
            assert len(set(modal)) == spec.k

    def test_noise_variables_roughly_uniform(self):
        spec = GenSpec(q=4, k=2, n_obs=2000, n_vars=4, active_ratio=0.5, seed=5)
        ds, _ = generate_clustered(spec)
        for j in range(spec.n_active, spec.n_vars):
            shares = np.bincount(ds.codes[:, j], minlength=4) / 2000
            assert np.abs(shares - 0.25).max() < 0.05

    def test_active_count_floor(self):
        assert GenSpec(q=3, k=2, n_vars=9, active_ratio=0.5).n_active == 4

    def test_invalid_specs(self):
        with pytest.raises(SpecError):
            GenSpec(q=1, k=1)
        with pytest.raises(SpecError):
            GenSpec(q=3, k=2, high_prob=0.0)
        with pytest.raises(SpecError):
            generate_clustered(GenSpec(q=2, k=3))

    def test_negative_seed_rejected(self):
        # numpy's ValueError came out of generate_clustered before
        with pytest.raises(SpecError, match="seed must be >= 0"):
            GenSpec(q=3, k=2, seed=-1)


class TestGenerateSupplementary:
    def test_exact_probability_vectors(self):
        assert_allclose(class_probabilities(3, "unbalanced"), [1 / 6, 2 / 6, 3 / 6])
        assert_allclose(class_probabilities(2, "unbalanced"), [1 / 3, 2 / 3])
        assert_allclose(class_probabilities(4, "balanced"), np.full(4, 0.25))

    def test_balanced_shares(self):
        sup = generate_supplementary(SupGenSpec(n_sup=1, r=2, seed=1), 300)
        shares = sup.class_sizes(0) / 300
        assert np.abs(shares - 0.5).max() < 0.05

    def test_unbalanced_shares(self):
        sup = generate_supplementary(
            SupGenSpec(n_sup=1, r=3, balance="unbalanced", seed=2), 3000
        )
        shares = sup.class_sizes(0) / 3000
        assert_allclose(shares, [1 / 6, 2 / 6, 3 / 6], atol=0.03)

    def test_independence_of_cluster_truth(self):
        # class memberships carry no information about the planted clusters
        aris = []
        for rep in range(200):
            ds, truth = generate_clustered(
                GenSpec(q=4, k=3, n_obs=300, n_vars=2, seed=1000 + rep)
            )
            sup = generate_supplementary(SupGenSpec(n_sup=1, r=3, seed=5000 + rep), 300)
            aris.append(adjusted_rand_index(sup.codes[:, 0].tolist(), truth.tolist()))
        assert abs(float(np.median(aris))) < 0.05

    def test_invalid(self):
        with pytest.raises(SpecError):
            SupGenSpec(n_sup=1, r=1)
        with pytest.raises(SpecError):
            SupGenSpec(n_sup=1, r=3, balance="other")

    def test_negative_seed_rejected(self):
        # numpy's ValueError came out of generate_supplementary before
        with pytest.raises(SpecError, match="seed must be >= 0"):
            SupGenSpec(n_sup=1, r=3, seed=-1)


class TestGenerateIllustration:
    def test_variable_structure(self):
        ds, sup, truth = generate_illustration()
        assert ds.n_obs == 200
        assert ds.names == ("Meal", "Drink")
        assert ds.labels == (("Western", "Asian"), ("Fruit juice", "Tea", "Alcohol"))
        assert sup.names == ("Nationality", "Gender")
        assert sup.labels == (("American", "Japanese"), ("Male", "Female"))

    def test_per_class_cluster_counts(self):
        _ds, _sup, truth = generate_illustration()
        assert truth.spec.counts == ((2, 2), (3, 2))

    def test_signature_share_near_high_prob(self):
        ds, sup, truth = generate_illustration(seed=123)
        # members of the largest cluster of the American class (the
        # western/juice cluster) show the full signature about 90% of the time
        members = sup.members(0, 0)
        wj = members[truth.clusters[members, 0] == 0]
        full = np.mean((ds.codes[wj, 0] == 0) & (ds.codes[wj, 1] == 0))
        assert full == pytest.approx(0.9, abs=0.06)

    def test_alcohol_concentrated_in_american_males(self):
        ds, sup, truth = generate_illustration()
        male_alcohol = truth.clusters[sup.members(1, 0), 1] == 2
        # the alcohol cluster exists only inside the male class
        assert male_alcohol.sum() == 12
        for i in range(200):
            if sup.codes[i, 1] == 0 and truth.clusters[i, 1] == 2:
                assert sup.codes[i, 0] == 0  # American

    def test_deterministic(self):
        a = generate_illustration(seed=9)
        b = generate_illustration(seed=9)
        assert a[0].codes.tolist() == b[0].codes.tolist()
        assert a[2].clusters.tolist() == b[2].clusters.tolist()


class TestRunStudy:
    def _smoke_design(self):
        return StudyDesign(
            qs=(5,),
            ks=(2,),
            hs=(1,),
            rs=(3,),
            balances=("balanced",),
            replicates=2,
            starts=5,
            n_obs=120,
            n_vars=4,
            seed=77,
        )

    def test_smoke_row_count(self):
        rows = run_study(self._smoke_design())
        # one row per (replicate, class): 2 replicates x 3 classes
        assert len(rows) == 6
        assert {row["replicate"] for row in rows} == {0, 1}
        assert all(row["ari"] is not None for row in rows)

    def test_condition_labels(self):
        assert condition_label(3, "balanced") == "b3"
        assert condition_label(5, "unbalanced") == "u5"
        summary = summarize_study(run_study(self._smoke_design()))
        assert summary[0]["cond"] == "b3"

    def test_deterministic_except_runtime(self):
        r1 = run_study(self._smoke_design())
        r2 = run_study(self._smoke_design())
        for a, b in zip(r1, r2):
            for key in a:
                if key == "runtime_ms":
                    continue
                assert a[key] == b[key]

    def test_infeasible_cells_recorded_not_fatal(self):
        # classes too small to host K clusters: rows carry the error's type
        # and the first line of its message
        design = StudyDesign(
            qs=(4,),
            ks=(4,),
            hs=(1,),
            rs=(5,),
            balances=("unbalanced",),
            replicates=2,
            starts=2,
            n_obs=20,
            n_vars=3,
            seed=9,
        )
        rows = run_study(design)
        assert rows, "failure rows must still be emitted"
        assert all(row["ari"] is None for row in rows)
        error = r"SpecError: class s1:c\d has \d members, cannot host 4 clusters"
        assert all(re.fullmatch(error, row["error"]) for row in rows)

    def test_unscorable_cells_recorded_not_fatal(self):
        # three observations over three classes: a class of one member has
        # no pair for the adjusted Rand index
        design = StudyDesign(
            qs=(3,), ks=(1,), hs=(1,), rs=(3,), balances=("balanced",),
            replicates=1, starts=1, n_obs=3, n_vars=3, max_iter=20,
        )
        rows = run_study(design)
        assert rows, "failure rows must still be emitted"
        error = "ShapeError: need at least two elements to compare partitions"
        assert all(row["ari"] is None and row["error"] == error for row in rows)

    def test_every_cell_has_distinct_signal_categories(self):
        # the cell (q=3, K=4) is impossible, so the design is rejected whole
        with pytest.raises(SpecError, match="q=3 < K=4"):
            StudyDesign(qs=(3, 5), ks=(2, 4))
        StudyDesign(qs=(3, 5), ks=(2, 4), active_ratio=0.0)  # noise only: any q will do

    def test_programming_errors_are_not_recorded_as_failures(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in the fitter")

        monkeypatch.setattr(simulation, "fit_mscca", broken)
        with pytest.raises(TypeError):
            run_study(self._smoke_design(), workers=1)

    @pytest.mark.parametrize("value", ["two", "0", "-3", "1.5", ""])
    def test_bad_thread_count_is_a_config_error(self, monkeypatch, value):
        monkeypatch.setenv("MSCCA_THREADS", value)
        with pytest.raises(ConfigError, match="MSCCA_THREADS"):
            run_study(self._smoke_design())

    def test_worker_count_clamped_to_cpus_and_tasks(self, monkeypatch):
        # a stand-in pool that records its size and runs tasks in-process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: 8)
        design = self._smoke_design()  # 2 tasks: one cell, two replicates
        monkeypatch.setenv("MSCCA_THREADS", "1000")
        assert len(run_study(design)) == 6
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: 3)
        run_study(replace(design, replicates=5), workers=64)
        assert sizes == [2, 3]

    def test_parallel_workers_match_sequential(self):
        design = self._smoke_design()
        sequential = run_study(design, workers=1)
        parallel = run_study(design, workers=2)
        for a, b in zip(sequential, parallel):
            for key in a:
                if key == "runtime_ms":
                    continue
                assert a[key] == b[key]

    def test_true_assignment_requires_all_clusters(self):
        from mscca import SupplementaryData

        sup = SupplementaryData(
            codes=np.array([[0], [0], [1], [1]]),
            labels=(("a", "b"),),
            names=("s1",),
        )
        # class b never sees cluster 1
        assert _true_assignment(sup, np.array([0, 1, 0, 0]), 2) is None
        full = _true_assignment(sup, np.array([0, 1, 0, 1]), 2)
        assert full is not None
        assert full.clusters[:, 0].tolist() == [0, 1, 0, 1]
