import numpy as np
import pytest
from numpy.testing import assert_allclose

from mscca import (
    ClusterSpec,
    ConstraintSpec,
    HierarchicalAssignment,
    SolverOptions,
    SupplementaryData,
    encode_dataset,
    encode_supplementary,
    fit_cluster_ca,
    fit_constrained_mca,
    fit_mscca,
    init_random,
    object_scores,
    objective_phi,
    psi_value,
    repair_empty_clusters,
    stacked_indicators,
    update_B,
    update_G,
    update_U,
)
from mscca.errors import EmptyClusterError, ProjectorError, SpecError
from mscca.simulation import GenSpec, generate_clustered

from conftest import (
    dense_constrained_fit,
    principal_angles,
    random_assignment,
    random_problem,
    random_sup,
    repair_empty_clusters_by_class,
    stacked_indicator,
    update_U_by_class,
    z_full,
    z_full_stacked,
    z_var_stacked,
)


def single_class_sup(n: int) -> SupplementaryData:
    return SupplementaryData(
        codes=np.zeros((n, 1), dtype=np.int64), labels=(("all",),), names=("cluster",)
    )


def nonempty_random_assignment(rng, sup, spec):
    return init_random(sup, spec, rng)


class TestObjectivePhi:
    def test_zero_parameters(self, rng):
        ds, sup, spec = random_problem(rng)
        asg = nonempty_random_assignment(rng, sup, spec)
        view = stacked_indicators(ds, sup.n_sup)
        g = np.zeros((spec.k_total, 2))
        b = np.zeros((ds.total_categories, 2))
        assert objective_phi(asg, g, b, view) == 0.0

    def test_relabeling_invariance(self, rng):
        ds, sup, spec = random_problem(rng)
        asg = nonempty_random_assignment(rng, sup, spec)
        view = stacked_indicators(ds, sup.n_sup)
        g = rng.normal(size=(spec.k_total, 2))
        b = rng.normal(size=(ds.total_categories, 2))
        base = objective_phi(asg, g, b, view)
        # swap two clusters of one class and permute G rows to match
        h = 0
        s = next(s for s in range(sup.r[0]) if spec.k_of(0, s) >= 2)
        offset = int(spec.first_rows[h][s])
        clusters = np.array(asg.clusters)
        members = sup.members(h, s)
        local = clusters[members, h]
        swapped = local.copy()
        swapped[local == 0] = 1
        swapped[local == 1] = 0
        clusters[members, h] = swapped
        g2 = g.copy()
        g2[[offset, offset + 1]] = g2[[offset + 1, offset]]
        assert objective_phi(asg.with_clusters(clusters), g2, b, view) == pytest.approx(
            base, abs=1e-12
        )

    def test_exact_fit_single_variable(self, rng):
        # one variable whose categories are the clusters: residual is zero
        ds = encode_dataset([["a"], ["a"], ["b"], ["b"], ["c"], ["c"]])
        sup = single_class_sup(6)
        spec = ClusterSpec(counts=((3,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=ds.codes[:, :1].copy())
        view = stacked_indicators(ds, 1)
        b = update_B(asg, view, 2)
        g = update_G(asg, view, b)
        assert objective_phi(asg, g, b, view) == pytest.approx(0.0, abs=1e-12)


class TestPsiValue:
    def test_zero_quantifications(self, rng):
        ds, sup, spec = random_problem(rng)
        asg = nonempty_random_assignment(rng, sup, spec)
        view = stacked_indicators(ds, sup.n_sup)
        assert psi_value(asg, np.zeros((ds.total_categories, 2)), view) == 0.0

    def test_single_cluster_annihilated(self, rng):
        ds = encode_dataset([["a"], ["b"], ["a"], ["b"]])
        sup = single_class_sup(4)
        spec = ClusterSpec(counts=((1,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=np.zeros((4, 1), dtype=np.int64))
        view = stacked_indicators(ds, 1)
        b = rng.normal(size=(2, 2))
        assert psi_value(asg, b, view) == pytest.approx(0.0, abs=1e-12)

    def test_empty_cluster_raises(self):
        ds = encode_dataset([["a"], ["b"], ["a"]])
        sup = single_class_sup(3)
        spec = ClusterSpec(counts=((2,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=np.zeros((3, 1), dtype=np.int64))
        view = stacked_indicators(ds, 1)
        with pytest.raises(EmptyClusterError):
            psi_value(asg, np.ones((2, 1)), view)

    def test_min_max_identity_after_center_update(self, rng):
        # after refreshing B and G, phi equals p - psi / (N H m^2)
        for _ in range(10):
            ds, sup, spec = random_problem(rng)
            asg = nonempty_random_assignment(rng, sup, spec)
            view = stacked_indicators(ds, sup.n_sup)
            p = 2
            b = update_B(asg, view, p)
            g = update_G(asg, view, b)
            phi = objective_phi(asg, g, b, view)
            psi = psi_value(asg, b, view)
            n, n_sup, m = ds.n_obs, sup.n_sup, ds.n_vars
            assert phi == pytest.approx(p - psi / (n * n_sup * m * m), abs=1e-8)


class TestIterateInvariants:
    def test_normalization_and_centering_every_iterate(self, rng):
        # the constraints hold at every cycle, not only at convergence
        ds, sup, spec = random_problem(rng)
        view = stacked_indicators(ds, sup.n_sup)
        asg = init_random(sup, spec, rng)
        for _ in range(5):
            b = update_B(asg, view, 2)
            total = np.zeros((2, 2))
            for j in range(ds.n_vars):
                zj = z_var_stacked(view, j)
                bj = b[view.offsets[j] : view.offsets[j] + ds.q[j]]
                total += bj.T @ zj.T @ zj @ bj
            total /= ds.n_obs * sup.n_sup * ds.n_vars
            assert_allclose(total, np.eye(2), atol=1e-8)
            g = update_G(asg, view, b)
            u = stacked_indicator(asg)
            assert np.abs((u @ g).mean(axis=0)).max() < 1e-10
            scores = object_scores(view, b)
            asg = update_U(scores, g, sup, spec)
            if any((asg.cluster_sizes(h) == 0).any() for h in range(asg.n_sup)):
                asg = repair_empty_clusters(asg, scores, g)


class TestInitRandom:
    def test_single_cluster_deterministic(self, rng):
        ds, sup, _ = random_problem(rng)
        spec = ClusterSpec.uniform(sup, 1)
        asg = init_random(sup, spec, rng)
        assert not asg.clusters.any()

    def test_fixed_seed_reproducible(self, rng):
        ds, sup, spec = random_problem(rng)
        a1 = init_random(sup, spec, np.random.default_rng(5))
        a2 = init_random(sup, spec, np.random.default_rng(5))
        assert a1.clusters.tolist() == a2.clusters.tolist()

    def test_saturated_class_is_permutation(self):
        sup = encode_supplementary([["x"], ["x"], ["x"]])
        spec = ClusterSpec(counts=((3,),))
        asg = init_random(sup, spec, np.random.default_rng(0))
        assert sorted(asg.clusters[:, 0].tolist()) == [0, 1, 2]

    def test_no_empty_clusters(self, rng):
        for _ in range(10):
            ds, sup, spec = random_problem(rng)
            asg = init_random(sup, spec, rng)
            for h in range(sup.n_sup):
                assert (asg.cluster_sizes(h) > 0).all()


class TestUpdateB:
    def test_normalization_constraint(self, rng):
        # (1/(N H m)) sum_j B_j' Z_j^H' Z_j^H B_j = I_p
        for _ in range(10):
            ds, sup, spec = random_problem(rng)
            asg = nonempty_random_assignment(rng, sup, spec)
            view = stacked_indicators(ds, sup.n_sup)
            b = update_B(asg, view, 2)
            total = np.zeros((2, 2))
            for j in range(ds.n_vars):
                zj = z_var_stacked(view, j)
                bj = b[view.offsets[j] : view.offsets[j] + ds.q[j]]
                total += bj.T @ zj.T @ zj @ bj
            total /= ds.n_obs * sup.n_sup * ds.n_vars
            assert_allclose(total, np.eye(2), atol=1e-8)

    def test_single_cluster_zero_spectrum_still_normalized(self):
        ds = encode_dataset([["a"], ["b"], ["a"], ["b"]])
        sup = single_class_sup(4)
        spec = ClusterSpec(counts=((1,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=np.zeros((4, 1), dtype=np.int64))
        view = stacked_indicators(ds, 1)
        b = update_B(asg, view, 1)
        d = np.diag(view.d_masses.astype(float))
        assert_allclose(b.T @ d @ b / (4 * 1 * 1), np.eye(1), atol=1e-10)

    def test_two_singleton_categories_match_diagonal_ca(self):
        # 4 observations, one binary variable, clusters = categories; the
        # quantification is the CA of the 2x2 diagonal table: +-1 columns.
        ds = encode_dataset([["a"], ["a"], ["b"], ["b"]])
        sup = single_class_sup(4)
        spec = ClusterSpec(counts=((2,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=ds.codes[:, :1].copy())
        view = stacked_indicators(ds, 1)
        b = update_B(asg, view, 1)
        assert_allclose(b[:, 0], [1.0, -1.0], atol=1e-10)

    def test_empty_cluster_propagates(self):
        ds = encode_dataset([["a"], ["b"], ["a"]])
        sup = single_class_sup(3)
        spec = ClusterSpec(counts=((2,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=np.zeros((3, 1), dtype=np.int64))
        with pytest.raises(EmptyClusterError):
            update_B(asg, stacked_indicators(ds, 1), 1)


class TestUpdateG:
    def test_singleton_cluster_row_is_its_score(self, rng):
        ds = encode_dataset([["a", "x"], ["b", "y"], ["a", "y"]])
        sup = single_class_sup(3)
        spec = ClusterSpec(counts=((3,),))
        asg = HierarchicalAssignment(
            sup=sup, spec=spec, clusters=np.array([[0], [1], [2]])
        )
        view = stacked_indicators(ds, 1)
        b = rng.normal(size=(ds.total_categories, 2))
        g = update_G(asg, view, b)
        assert_allclose(g, object_scores(view, b), atol=1e-12)

    def test_single_cluster_row_is_zero(self, rng):
        ds = encode_dataset([["a"], ["b"], ["a"], ["b"]])
        sup = single_class_sup(4)
        spec = ClusterSpec(counts=((1,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=np.zeros((4, 1), dtype=np.int64))
        view = stacked_indicators(ds, 1)
        g = update_G(asg, view, rng.normal(size=(2, 2)))
        assert_allclose(g, np.zeros((1, 2)), atol=1e-12)

    def test_three_member_mean(self, rng):
        ds = encode_dataset([["a"], ["b"], ["a"], ["b"], ["a"]])
        sup = single_class_sup(5)
        spec = ClusterSpec(counts=((2,),))
        asg = HierarchicalAssignment(
            sup=sup, spec=spec, clusters=np.array([[0], [0], [0], [1], [1]])
        )
        view = stacked_indicators(ds, 1)
        b = rng.normal(size=(2, 2))
        scores = object_scores(view, b)
        g = update_G(asg, view, b)
        assert_allclose(g[0], scores[:3].mean(axis=0), atol=1e-12)


class TestUpdateU:
    def test_single_cluster_class_unchanged(self, rng):
        sup = encode_supplementary([["M"], ["F"], ["M"]])
        spec = ClusterSpec.uniform(sup, 1)
        scores = rng.normal(size=(3, 2))
        g = rng.normal(size=(2, 2))
        asg = update_U(scores, g, sup, spec)
        assert not asg.clusters.any()

    def test_exact_center_chosen(self):
        sup = encode_supplementary([["x"], ["x"], ["x"]])
        spec = ClusterSpec(counts=((2,),))
        g = np.array([[0.0, 0.0], [2.0, 2.0]])
        scores = np.array([[2.0, 2.0], [0.1, 0.0], [1.9, 2.1]])
        asg = update_U(scores, g, sup, spec)
        assert asg.clusters[:, 0].tolist() == [1, 0, 1]

    def test_equidistant_breaks_to_lowest_index(self):
        sup = encode_supplementary([["x"]])
        spec = ClusterSpec(counts=((2,),))
        g = np.array([[1.0, 0.0], [-1.0, 0.0]])
        scores = np.array([[0.0, 5.0]])  # exactly equidistant
        asg = update_U(scores, g, sup, spec)
        assert asg.clusters[0, 0] == 0


class TestRepairEmptyClusters:
    def test_no_empties_unchanged(self, rng):
        ds, sup, spec = random_problem(rng)
        asg = nonempty_random_assignment(rng, sup, spec)
        scores = rng.normal(size=(sup.n_obs, 2))
        g = rng.normal(size=(spec.k_total, 2))
        repaired = repair_empty_clusters(asg, scores, g)
        assert repaired.clusters.tolist() == asg.clusters.tolist()

    def test_farthest_member_donated(self):
        sup = encode_supplementary([["x"], ["x"], ["x"]])
        spec = ClusterSpec(counts=((2,),))
        asg = HierarchicalAssignment(
            sup=sup, spec=spec, clusters=np.zeros((3, 1), dtype=np.int64)
        )
        scores = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        g = np.array([[0.5, 0.0], [99.0, 0.0]])
        repaired = repair_empty_clusters(asg, scores, g)
        # observation 2 sits farthest from center 0 and moves to cluster 1
        assert repaired.clusters[:, 0].tolist() == [0, 0, 1]

    def test_two_donations_make_singletons(self):
        sup = encode_supplementary([["x"], ["x"], ["x"]])
        spec = ClusterSpec(counts=((3,),))
        asg = HierarchicalAssignment(
            sup=sup, spec=spec, clusters=np.zeros((3, 1), dtype=np.int64)
        )
        scores = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        g = np.zeros((3, 2))
        repaired = repair_empty_clusters(asg, scores, g)
        assert sorted(repaired.clusters[:, 0].tolist()) == [0, 1, 2]
        assert (repaired.cluster_sizes(0) == 1).all()


def assignment_step_case(rng, n_sup, p):
    """Mixed per-class cluster counts (1-4), several emptied clusters, and
    integer-valued scores and centers, so distance ties are common."""
    n = int(rng.integers(20, 60))
    sup = random_sup(rng, n, n_sup, int(rng.integers(2, 4)))
    spec = ClusterSpec(
        tuple(
            tuple(int(rng.integers(1, min(4, size) + 1)) for size in sup.class_sizes(h))
            for h in range(n_sup)
        )
    )
    clusters = np.array(random_assignment(rng, sup, spec).clusters)
    for h in range(n_sup):
        for s in range(sup.r[h]):
            k = spec.k_of(h, s)
            if k > 1 and rng.random() < 0.7:
                members = sup.members(h, s)
                emptied = rng.choice(np.arange(1, k), size=int(rng.integers(1, k)), replace=False)
                clusters[members[np.isin(clusters[members, h], emptied)], h] = 0
    asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=clusters)
    scores = np.round(2 * rng.normal(size=(n, p)))
    centers = np.round(2 * rng.normal(size=(spec.k_total, p)))
    return asg, scores, centers


class TestAssignmentStepMatchesPerClassLoops:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n_sup", [1, 2, 3])
    def test_same_clusters(self, n_sup, p):
        rng = np.random.default_rng(100 * n_sup + p)
        emptied = 0
        for _ in range(20):
            asg, scores, centers = assignment_step_case(rng, n_sup, p)
            sup, spec = asg.sup, asg.spec
            assert np.array_equal(
                update_U(scores, centers, sup, spec).clusters,
                update_U_by_class(scores, centers, sup, spec).clusters,
            )
            emptied += int((np.bincount(asg.rows.ravel(), minlength=spec.k_total) == 0).sum())
            assert np.array_equal(
                repair_empty_clusters(asg, scores, centers).clusters,
                repair_empty_clusters_by_class(asg, scores, centers).clusters,
            )
        assert emptied >= 10


class TestFitMscca:
    def test_exact_recovery_noise_free(self, rng):
        from mscca import adjusted_rand_index
        from mscca.simulation import SupGenSpec, generate_supplementary

        ds, truth = generate_clustered(
            GenSpec(q=3, k=3, n_obs=60, n_vars=4, high_prob=1.0, active_ratio=1.0, seed=3)
        )
        sup = generate_supplementary(SupGenSpec(n_sup=1, r=2, seed=4), 60)
        counts = []
        for s in range(sup.r[0]):
            counts.append(len(np.unique(truth[sup.members(0, s)])))
        spec = ClusterSpec((tuple(counts),))
        sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=20, seed=0))
        for s in range(sup.r[0]):
            members = sup.members(0, s)
            ari = adjusted_rand_index(
                sol.assignment.clusters[members, 0].tolist(), truth[members].tolist()
            )
            assert ari == 1.0

    def test_monotone_traces(self, rng):
        ds, sup, spec = random_problem(rng, n=50)
        sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=5, seed=11))
        for trace in sol.start_traces:
            drops = np.diff(np.array(trace))
            assert (drops <= 1e-12).all()

    def test_deterministic_rerun(self, rng):
        ds, sup, spec = random_problem(rng)
        a = fit_mscca(ds, sup, spec, SolverOptions(n_starts=1, seed=9))
        b = fit_mscca(ds, sup, spec, SolverOptions(n_starts=1, seed=9))
        assert a.objective == b.objective
        assert a.assignment.clusters.tobytes() == b.assignment.clusters.tobytes()
        assert a.quantifications.tobytes() == b.quantifications.tobytes()
        assert a.centers.tobytes() == b.centers.tobytes()

    @pytest.mark.parametrize(
        "finals, winner",
        [
            # three starts tie up to a few ulps: the lowest index wins
            ([1.25 + 2 * 2.0**-52, 1.25, 1.25 + 2.0**-52, 1.25 + 1e-6], 0),
            # a gap far above rounding still decides the winner
            ([1.0 + 1e-9, 1.0, 1.0 + 1e-13], 1),
        ],
    )
    def test_winner_ignores_float_noise_between_starts(self, rng, monkeypatch, finals, winner):
        import mscca.solver as solver

        ds, sup, spec = random_problem(rng)
        finals = list(finals)
        real = solver._run_start

        def fake(view, sup, spec, options, rng):
            result = real(view, sup, spec, options, rng)
            return result._replace(trace=result.trace[:-1] + (finals.pop(0),))

        monkeypatch.setattr(solver, "_run_start", fake)
        sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=len(finals), seed=3))
        assert sol.start_index == winner
        assert sol.objective == sol.start_traces[winner][-1]

    def test_solution_invariants(self, rng):
        ds, sup, spec = random_problem(rng)
        sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=3, seed=2))
        view = stacked_indicators(ds, sup.n_sup)
        # normalization of B
        total = np.zeros((2, 2))
        for j in range(ds.n_vars):
            zj = z_var_stacked(view, j)
            bj = sol.quantifications[view.offsets[j] : view.offsets[j] + ds.q[j]]
            total += bj.T @ zj.T @ zj @ bj
        total /= ds.n_obs * sup.n_sup * ds.n_vars
        assert_allclose(total, np.eye(2), atol=1e-8)
        # centering of the stacked cluster scores
        u = stacked_indicator(sol.assignment)
        assert np.abs((u @ sol.centers).mean(axis=0)).max() < 1e-10
        # reported objective matches a fresh evaluation
        assert sol.objective == pytest.approx(
            objective_phi(sol.assignment, sol.centers, sol.quantifications, view), abs=1e-12
        )

    def test_all_single_clusters_match_projector_route(self, rng):
        ds, sup, _ = random_problem(rng, n=40)
        spec = ClusterSpec.uniform(sup, 1)
        sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=1, seed=0))
        fit = fit_constrained_mca(ds, ConstraintSpec(kind="projector-on", source=sup), 2)
        assert sol.objective == pytest.approx(fit.objective, abs=1e-8)
        angles = principal_angles(sol.quantifications, fit.quantifications)
        assert angles.max() < 1e-6

    def test_rank_bound_enforced(self, rng):
        ds, sup, spec = random_problem(rng, m=2, q=2)  # Q - m = 2
        with pytest.raises(SpecError):
            fit_mscca(ds, sup, spec, SolverOptions(p=3, n_starts=1))


class TestReplicateBlocks:
    def test_stacked_scores_repeat_per_block(self, rng):
        ds, sup, spec = random_problem(rng, n_sup=3)
        view = stacked_indicators(ds, sup.n_sup)
        b = rng.normal(size=(ds.total_categories, 2))
        zh = z_full_stacked(view)
        centered = zh - zh.mean(axis=0, keepdims=True)
        stacked_scores = centered @ b
        n = ds.n_obs
        for h in range(1, sup.n_sup):
            block = stacked_scores[h * n : (h + 1) * n]
            assert np.abs(block - stacked_scores[:n]).max() < 1e-12


class TestFitClusterCa:
    def test_pattern_saturation_zero_objective(self):
        ds, truth = generate_clustered(
            GenSpec(q=3, k=3, n_obs=30, n_vars=3, high_prob=1.0, active_ratio=1.0, seed=8)
        )
        k = len({tuple(row) for row in ds.codes.tolist()})
        sol = fit_cluster_ca(ds, k, SolverOptions(p=2, n_starts=20, seed=0))
        assert sol.objective == pytest.approx(0.0, abs=1e-10)

    def test_single_cluster_rejected(self, rng):
        ds, _, _ = random_problem(rng)
        with pytest.raises(SpecError):
            fit_cluster_ca(ds, 1)

    def test_matches_single_class_hierarchy(self, rng):
        ds, _, _ = random_problem(rng, n=30)
        opts = SolverOptions(n_starts=3, seed=4)
        direct = fit_cluster_ca(ds, 3, opts)
        sup = single_class_sup(30)
        via_mscca = fit_mscca(ds, sup, ClusterSpec(counts=((3,),)), opts)
        assert direct.objective == pytest.approx(via_mscca.objective, abs=1e-12)
        assert direct.assignment.clusters.tolist() == via_mscca.assignment.clusters.tolist()


class TestFitConstrainedMca:
    def test_identity_matches_ca_of_indicator(self, rng):
        # oracle: singular value decomposition of the standardized residuals
        # of the flat indicator treated as one contingency table
        ds, _, _ = random_problem(rng, n=40, m=3, q=3)
        view = stacked_indicators(ds, 1)
        fit = fit_constrained_mca(ds, ConstraintSpec(kind="identity"), 2)
        z = z_full(view)
        n, m = ds.n_obs, ds.n_vars
        p_tab = z / (n * m)
        r = p_tab.sum(axis=1)
        c = p_tab.sum(axis=0)
        resid = (p_tab - np.outer(r, c)) / np.sqrt(np.outer(r, c))
        _u, s, vt = np.linalg.svd(resid)
        oracle_b = np.sqrt(n * m) * vt[:2].T / np.sqrt(view.d_masses)[:, None]
        angles = principal_angles(fit.quantifications, oracle_b)
        assert angles.max() < 1e-6
        assert fit.objective == pytest.approx(2 - (s[:2] ** 2).sum(), abs=1e-10)

    def test_projector_on_scores_are_class_means(self, rng):
        ds, sup, _ = random_problem(rng, n=30, n_sup=2)
        fit = fit_constrained_mca(ds, ConstraintSpec(kind="projector-on", source=sup), 2)
        n = ds.n_obs
        for h in range(sup.n_sup):
            block = fit.scores[h * n : (h + 1) * n]
            for s in range(sup.r[h]):
                members = sup.members(h, s)
                rows = block[members]
                assert np.abs(rows - rows.mean(axis=0)).max() < 1e-10

    def test_projector_off_removes_class_means(self, rng):
        ds, sup, _ = random_problem(rng, n=30, n_sup=2)
        fit = fit_constrained_mca(ds, ConstraintSpec(kind="projector-off", source=sup), 2)
        n = ds.n_obs
        for h in range(sup.n_sup):
            block = fit.scores[h * n : (h + 1) * n]
            for s in range(sup.r[h]):
                members = sup.members(h, s)
                assert np.abs(block[members].mean(axis=0)).max() < 1e-10

    def test_membership_projector_matches_solver(self, rng):
        # clusters >= 2 per class keep the top-2 eigenspace well separated
        ds, sup, _ = random_problem(rng, n=40)
        spec = ClusterSpec(
            tuple(tuple(2 for _ in range(sup.r[h])) for h in range(sup.n_sup))
        )
        sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=3, seed=6))
        fit = fit_constrained_mca(
            ds, ConstraintSpec(kind="membership-projector", source=sol.assignment), 2
        )
        assert fit.objective == pytest.approx(sol.objective, abs=1e-8)
        angles = principal_angles(fit.quantifications, sol.quantifications)
        assert angles.max() < 1e-6

    @pytest.mark.parametrize(
        "kind", ["identity", "projector-on", "projector-off", "membership-projector"]
    )
    def test_matches_dense_projector_route(self, rng, kind):
        for _ in range(5):
            ds, sup, _ = random_problem(rng, n=40)
            source = sup
            if kind == "identity":
                source = None
            elif kind == "membership-projector":
                # two clusters per class keep the top-2 eigenspace well separated
                source = init_random(sup, ClusterSpec.uniform(sup, 2), rng)
            cspec = ConstraintSpec(kind=kind, source=source)
            fit = fit_constrained_mca(ds, cspec, 2)
            dense = dense_constrained_fit(ds, cspec, 2)
            assert fit.objective == pytest.approx(dense.objective, abs=1e-10)
            angles = principal_angles(fit.quantifications, dense.quantifications)
            assert angles.max() < 1e-6
            assert fit.scores.shape == dense.scores.shape
            assert np.abs(fit.scores - dense.scores).max() <= 1e-8

    def test_rank_deficient_projector(self):
        ds = encode_dataset([["a"], ["b"], ["a"]])
        sup = single_class_sup(3)
        spec = ClusterSpec(counts=((2,),))
        empty = HierarchicalAssignment(
            sup=sup, spec=spec, clusters=np.zeros((3, 1), dtype=np.int64)
        )
        with pytest.raises(ProjectorError):
            fit_constrained_mca(
                ds, ConstraintSpec(kind="membership-projector", source=empty), 1
            )

    def test_kind_validation(self, rng):
        ds, sup, _ = random_problem(rng)
        with pytest.raises(SpecError):
            ConstraintSpec(kind="nonsense")
        with pytest.raises(SpecError):
            ConstraintSpec(kind="identity", source=sup)
        with pytest.raises(SpecError):
            ConstraintSpec(kind="projector-on")


class TestLabelPermutationEquivariance:
    def test_permuted_labels_same_objective(self, rng):
        ds, sup, spec = random_problem(rng)
        view = stacked_indicators(ds, sup.n_sup)
        asg = nonempty_random_assignment(rng, sup, spec)
        b = update_B(asg, view, 2)
        g = update_G(asg, view, b)
        phi = objective_phi(asg, g, b, view)
        # permute cluster labels inside the largest class of variable 0
        h = 0
        s = int(np.argmax([spec.k_of(h, s) for s in range(sup.r[h])]))
        k = spec.k_of(h, s)
        if k < 2:
            pytest.skip("no class with multiple clusters in this draw")
        perm = np.roll(np.arange(k), 1)
        clusters = np.array(asg.clusters)
        members = sup.members(h, s)
        clusters[members, h] = perm[clusters[members, h]]
        permuted = asg.with_clusters(clusters)
        b2 = update_B(permuted, view, 2)
        g2 = update_G(permuted, view, b2)
        assert objective_phi(permuted, g2, b2, view) == pytest.approx(phi, abs=1e-10)
        # center rows of the permuted class are the originals, permuted
        offset = int(spec.first_rows[h][s])
        block = g[offset : offset + k]
        block2 = g2[offset : offset + k]
        assert_allclose(np.sort(block, axis=0), np.sort(block2, axis=0), atol=1e-8)
