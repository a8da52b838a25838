import numpy as np
import pytest

import mscca.data
import mscca.solver
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mscca import (
    CategoricalDataset,
    ClusterSpec,
    ConstraintSpec,
    HierarchicalAssignment,
    SolverOptions,
    SupplementaryData,
    cluster_counts,
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
    update_B,
    update_G,
    update_U,
)
from mscca.errors import EmptyClusterError, ProjectorError, SpecError
from mscca.linalg import TOL
from mscca.solver import _centered_burt
from mscca.simulation import GenSpec, SupGenSpec, generate_clustered, generate_supplementary

from conftest import (
    _direct_objective,
    between_spectrum,
    center_columns,
    cluster_sizes,
    dense_constrained_fit,
    dense_objective,
    fit_mscca_sequential,
    principal_angles,
    random_assignment,
    random_dataset,
    random_mixed_problem,
    random_problem,
    random_sup,
    repair_empty_clusters_by_class,
    stacked_indicator,
    traced_peak,
    update_B_qxq,
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
        g = np.zeros((spec.k_total, 2))
        b = np.zeros((ds.total_categories, 2))
        assert objective_phi(asg, g, b, ds) == 0.0

    def test_relabeling_invariance(self, rng):
        ds, sup, spec = random_problem(rng)
        asg = nonempty_random_assignment(rng, sup, spec)
        g = rng.normal(size=(spec.k_total, 2))
        b = rng.normal(size=(ds.total_categories, 2))
        base = objective_phi(asg, g, b, ds)
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
        assert objective_phi(asg.with_clusters(clusters), g2, b, ds) == pytest.approx(
            base, abs=1e-12
        )

    def test_exact_fit_single_variable(self, rng):
        # one variable whose categories are the clusters: residual is zero
        ds = encode_dataset([["a"], ["a"], ["b"], ["b"], ["c"], ["c"]])
        sup = single_class_sup(6)
        spec = ClusterSpec(counts=((3,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=ds.codes[:, :1].copy())
        b = update_B(asg, ds, 2)
        g = update_G(asg, ds, b)
        assert objective_phi(asg, g, b, ds) == pytest.approx(0.0, abs=1e-12)

    def test_assignment_with_an_empty_cluster(self, rng):
        # the engine judges repairs with objective_phi, so it takes an
        # assignment that the count table of cluster_counts refuses
        ds, sup, spec = random_problem(rng)
        asg = nonempty_random_assignment(rng, sup, spec)
        s = next(s for s in range(sup.r[0]) if spec.k_of(0, s) >= 2)
        clusters = np.array(asg.clusters)
        clusters[sup.members(0, s), 0] = 0
        emptied = asg.with_clusters(clusters)
        with pytest.raises(EmptyClusterError):
            cluster_counts(emptied, ds)
        g = rng.normal(size=(spec.k_total, 2))
        b = rng.normal(size=(ds.total_categories, 2))
        assert objective_phi(emptied, g, b, ds) == pytest.approx(
            dense_objective(emptied, g, b, ds), rel=1e-12
        )


class TestPsiValue:
    def test_zero_quantifications(self, rng):
        ds, sup, spec = random_problem(rng)
        asg = nonempty_random_assignment(rng, sup, spec)
        assert psi_value(asg, np.zeros((ds.total_categories, 2)), ds) == 0.0

    def test_single_cluster_annihilated(self, rng):
        ds = encode_dataset([["a"], ["b"], ["a"], ["b"]])
        sup = single_class_sup(4)
        spec = ClusterSpec(counts=((1,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=np.zeros((4, 1), dtype=np.int64))
        b = rng.normal(size=(2, 2))
        assert psi_value(asg, b, ds) == pytest.approx(0.0, abs=1e-12)

    def test_empty_cluster_raises(self):
        ds = encode_dataset([["a"], ["b"], ["a"]])
        sup = single_class_sup(3)
        spec = ClusterSpec(counts=((2,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=np.zeros((3, 1), dtype=np.int64))
        with pytest.raises(EmptyClusterError):
            psi_value(asg, np.ones((2, 1)), ds)

    def test_min_max_identity_after_center_update(self, rng):
        # after refreshing B and G, phi equals p - psi / (N H m^2)
        for _ in range(10):
            ds, sup, spec = random_problem(rng)
            asg = nonempty_random_assignment(rng, sup, spec)
            p = 2
            b = update_B(asg, ds, p)
            g = update_G(asg, ds, b)
            phi = objective_phi(asg, g, b, ds)
            psi = psi_value(asg, b, ds)
            n, n_sup, m = ds.n_obs, sup.n_sup, ds.n_vars
            assert phi == pytest.approx(p - psi / (n * n_sup * m * m), abs=1e-8)


class TestIterateInvariants:
    def test_normalization_and_centering_every_iterate(self, rng):
        # the constraints hold at every cycle, not only at convergence
        ds, sup, spec = random_problem(rng)
        asg = init_random(sup, spec, rng)
        for _ in range(5):
            b = update_B(asg, ds, 2)
            total = np.zeros((2, 2))
            for j in range(ds.n_vars):
                zj = z_var_stacked(ds, sup.n_sup, j)
                bj = b[ds.offsets[j] : ds.offsets[j] + ds.q[j]]
                total += bj.T @ zj.T @ zj @ bj
            total /= ds.n_obs * sup.n_sup * ds.n_vars
            assert_allclose(total, np.eye(2), atol=1e-8)
            g = update_G(asg, ds, b)
            u = stacked_indicator(asg)
            assert np.abs((u @ g).mean(axis=0)).max() < 1e-10
            scores = object_scores(ds, b)
            asg = update_U(scores, g, sup, spec)
            if any((cluster_sizes(asg, h) == 0).any() for h in range(asg.n_sup)):
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
                assert (cluster_sizes(asg, h) > 0).all()

    def test_draws_the_numbers_of_the_per_class_loop(self):
        # The per-class draw, two scatters per class: the same clusters, and
        # the generator left in the same state.  Class sizes of 1-6 against
        # cluster counts of 1-4 make some classes saturated (K_hs = size).
        saturated = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n_sup = int(rng.integers(1, 4))
            sup = random_sup(rng, int(rng.integers(6, 30)), n_sup, int(rng.integers(2, 5)))
            spec = ClusterSpec(
                tuple(
                    tuple(int(min(size, rng.integers(1, 5))) for size in sup.class_sizes(h))
                    for h in range(n_sup)
                )
            )
            want = np.zeros((sup.n_obs, n_sup), dtype=np.int64)
            loop = np.random.default_rng(seed)
            for h in range(n_sup):
                for s in range(sup.r[h]):
                    k = spec.k_of(h, s)
                    perm = loop.permutation(sup.members(h, s))
                    want[perm[:k], h] = np.arange(k)
                    if perm.size > k:
                        want[perm[k:], h] = loop.integers(0, k, size=perm.size - k)
                    saturated += 1 < perm.size == k
            drawn = np.random.default_rng(seed)
            got = np.full_like(want, -1)
            mscca.solver._draw_clusters(sup, spec, drawn, got)
            assert np.array_equal(got, want)
            assert drawn.bit_generator.state == loop.bit_generator.state
        assert saturated


class TestUpdateB:
    def test_normalization_constraint(self, rng):
        # (1/(N H m)) sum_j B_j' Z_j^H' Z_j^H B_j = I_p
        for _ in range(10):
            ds, sup, spec = random_problem(rng)
            asg = nonempty_random_assignment(rng, sup, spec)
            b = update_B(asg, ds, 2)
            total = np.zeros((2, 2))
            for j in range(ds.n_vars):
                zj = z_var_stacked(ds, sup.n_sup, j)
                bj = b[ds.offsets[j] : ds.offsets[j] + ds.q[j]]
                total += bj.T @ zj.T @ zj @ bj
            total /= ds.n_obs * sup.n_sup * ds.n_vars
            assert_allclose(total, np.eye(2), atol=1e-8)

    def test_single_cluster_zero_spectrum_still_normalized(self):
        ds = encode_dataset([["a"], ["b"], ["a"], ["b"]])
        sup = single_class_sup(4)
        spec = ClusterSpec(counts=((1,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=np.zeros((4, 1), dtype=np.int64))
        b = update_B(asg, ds, 1)
        d = np.diag(ds.counts.astype(float))
        assert_allclose(b.T @ d @ b / (4 * 1 * 1), np.eye(1), atol=1e-10)

    def test_two_singleton_categories_match_diagonal_ca(self):
        # 4 observations, one binary variable, clusters = categories; the
        # quantification is the CA of the 2x2 diagonal table: +-1 columns.
        ds = encode_dataset([["a"], ["a"], ["b"], ["b"]])
        sup = single_class_sup(4)
        spec = ClusterSpec(counts=((2,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=ds.codes[:, :1].copy())
        b = update_B(asg, ds, 1)
        assert_allclose(b[:, 0], [1.0, -1.0], atol=1e-10)

    def test_empty_cluster_propagates(self):
        ds = encode_dataset([["a"], ["b"], ["a"]])
        sup = single_class_sup(3)
        spec = ClusterSpec(counts=((2,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=np.zeros((3, 1), dtype=np.int64))
        with pytest.raises(EmptyClusterError):
            update_B(asg, ds, 1)


class TestUpdateG:
    def test_singleton_cluster_row_is_its_score(self, rng):
        ds = encode_dataset([["a", "x"], ["b", "y"], ["a", "y"]])
        sup = single_class_sup(3)
        spec = ClusterSpec(counts=((3,),))
        asg = HierarchicalAssignment(
            sup=sup, spec=spec, clusters=np.array([[0], [1], [2]])
        )
        b = rng.normal(size=(ds.total_categories, 2))
        g = update_G(asg, ds, b)
        assert_allclose(g, object_scores(ds, b), atol=1e-12)

    def test_single_cluster_row_is_zero(self, rng):
        ds = encode_dataset([["a"], ["b"], ["a"], ["b"]])
        sup = single_class_sup(4)
        spec = ClusterSpec(counts=((1,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=np.zeros((4, 1), dtype=np.int64))
        g = update_G(asg, ds, rng.normal(size=(2, 2)))
        assert_allclose(g, np.zeros((1, 2)), atol=1e-12)

    def test_three_member_mean(self, rng):
        ds = encode_dataset([["a"], ["b"], ["a"], ["b"], ["a"]])
        sup = single_class_sup(5)
        spec = ClusterSpec(counts=((2,),))
        asg = HierarchicalAssignment(
            sup=sup, spec=spec, clusters=np.array([[0], [0], [0], [1], [1]])
        )
        b = rng.normal(size=(2, 2))
        scores = object_scores(ds, b)
        g = update_G(asg, ds, b)
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
        assert (cluster_sizes(repaired, 0) == 1).all()


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
    def test_winner_ignores_float_noise_between_starts(self, rng, finals, winner):
        assert np.argmax(mscca.solver._ties(finals)) == winner
        ds, sup, spec = random_problem(rng)
        sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=len(finals), seed=3))
        assert sol.start_index == np.argmax(mscca.solver._ties([t[-1] for t in sol.start_traces]))
        assert sol.objective == sol.start_traces[sol.start_index][-1]

    def test_solution_invariants(self, rng):
        ds, sup, spec = random_problem(rng)
        sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=3, seed=2))
        # normalization of B
        total = np.zeros((2, 2))
        for j in range(ds.n_vars):
            zj = z_var_stacked(ds, sup.n_sup, j)
            bj = sol.quantifications[ds.offsets[j] : ds.offsets[j] + ds.q[j]]
            total += bj.T @ zj.T @ zj @ bj
        total /= ds.n_obs * sup.n_sup * ds.n_vars
        assert_allclose(total, np.eye(2), atol=1e-8)
        # centering of the stacked cluster scores
        u = stacked_indicator(sol.assignment)
        assert np.abs((u @ sol.centers).mean(axis=0)).max() < 1e-10
        # reported objective matches a fresh evaluation
        assert sol.objective == pytest.approx(
            objective_phi(sol.assignment, sol.centers, sol.quantifications, ds), abs=1e-12
        )

    def test_trace_replays_with_direct_objectives(self, rng):
        # Each trace entry is phi at that cycle's exact (B, G); the final
        # one is the direct residual sum itself, which is what the
        # multistart compares and reports.
        ds, sup, spec = random_problem(rng, n=60, n_sup=2, r=3, k_max=3)
        options = SolverOptions(p=2, n_starts=4, seed=7)
        sol = fit_mscca(ds, sup, spec, options)
        seeds = np.random.SeedSequence(options.seed).spawn(options.n_starts)
        for seed, trace in zip(seeds, sol.start_traces):
            asg = init_random(sup, spec, np.random.default_rng(seed))
            for t, value in enumerate(trace):
                b = update_B(asg, ds, options.p)
                g = update_G(asg, ds, b)
                phi = objective_phi(asg, g, b, ds)
                assert abs(value - phi) <= 1e-12
                if t == len(trace) - 1:
                    assert value == phi
                    break
                scores = object_scores(ds, b)
                candidate = update_U(scores, g, sup, spec)
                if any((cluster_sizes(candidate, h) == 0).any() for h in range(sup.n_sup)):
                    repaired = repair_empty_clusters(candidate, scores, g)
                    if objective_phi(repaired, g, b, ds) <= phi:
                        candidate = repaired
                    else:
                        candidate = asg
                asg = candidate
        winner = sol.start_traces[sol.start_index]
        assert sol.objective == winner[-1]

    def test_all_single_clusters_match_projector_route(self, rng):
        ds, sup, _ = random_problem(rng, n=40)
        spec = ClusterSpec.uniform(sup, 1)
        sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=1, seed=0))
        classes = HierarchicalAssignment.by_class(sup)
        fit = fit_constrained_mca(ds, ConstraintSpec(kind="membership-projector", source=classes), 2)
        assert sol.objective == pytest.approx(fit.objective, abs=1e-8)
        angles = principal_angles(sol.quantifications, fit.quantifications)
        assert angles.max() < 1e-6
        # class averaging runs the fit's own B-step on the same count table
        assert fit.quantifications.tobytes() == sol.quantifications.tobytes()
        assert fit.objective == sol.objective

    def test_rank_bound_enforced(self, rng):
        ds, sup, spec = random_problem(rng, m=2, q=2)  # Q - m = 2
        with pytest.raises(SpecError):
            fit_mscca(ds, sup, spec, SolverOptions(p=3, n_starts=1))
        with pytest.raises(SpecError):
            update_B(init_random(sup, spec, rng), ds, 3)


class TestReplicateBlocks:
    def test_stacked_scores_repeat_per_block(self, rng):
        ds, sup, spec = random_problem(rng, n_sup=3)
        b = rng.normal(size=(ds.total_categories, 2))
        zh = z_full_stacked(ds, sup.n_sup)
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
        fit = fit_constrained_mca(ds, ConstraintSpec(kind="identity"), 2)
        z = z_full(ds)
        n, m = ds.n_obs, ds.n_vars
        p_tab = z / (n * m)
        r = p_tab.sum(axis=1)
        c = p_tab.sum(axis=0)
        resid = (p_tab - np.outer(r, c)) / np.sqrt(np.outer(r, c))
        _u, s, vt = np.linalg.svd(resid)
        oracle_b = np.sqrt(n * m) * vt[:2].T / np.sqrt(ds.counts)[:, None]
        angles = principal_angles(fit.quantifications, oracle_b)
        assert angles.max() < 1e-6
        assert fit.objective == pytest.approx(2 - (s[:2] ** 2).sum(), abs=1e-10)

    def test_projector_on_scores_are_class_means(self, rng):
        ds, sup, _ = random_problem(rng, n=30, n_sup=2)
        classes = HierarchicalAssignment.by_class(sup)
        fit = fit_constrained_mca(ds, ConstraintSpec(kind="membership-projector", source=classes), 2)
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
        asg = sol.assignment
        assert fit.quantifications.tobytes() == update_B(asg, ds, 2).tobytes()

    def test_membership_projector_objective_is_the_direct_sum(self, rng):
        # the objective grouped by count-table cell against the residual sum
        # over the projected blocks, for clusters and for one group per class
        for _ in range(5):
            ds, sup, spec = random_problem(rng, n=40)
            for source in (
                nonempty_random_assignment(rng, sup, spec), HierarchicalAssignment.by_class(sup)
            ):
                fit = fit_constrained_mca(
                    ds, ConstraintSpec(kind="membership-projector", source=source), 2
                )
                blocks = np.split(fit.scores, source.n_sup)
                direct = float(_direct_objective(blocks, fit.quantifications, ds))
                assert fit.objective == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("packs", [False, True])
    def test_spectrum_objective_is_the_direct_sum(self, rng, packs):
        # p less the top p eigenvalues against the residual sum over the
        # fit's scores; 2,000 rows of q = 3 pack three variables per group
        for _ in range(3):
            if packs:
                ds, sup = random_dataset(rng, 2000, 7, 3), random_sup(rng, 2000, 2, 3)
            else:
                ds, sup, _ = random_problem(rng, n=40)
            assert (len(ds.packed.rows) < ds.n_vars) == packs
            for kind, source in (("identity", None), ("projector-off", sup)):
                fit = fit_constrained_mca(ds, ConstraintSpec(kind=kind, source=source), 2)
                blocks = np.split(fit.scores, 1 if source is None else sup.n_sup)
                direct = float(_direct_objective(blocks, fit.quantifications, ds))
                assert fit.objective == pytest.approx(direct, rel=1e-14)

    def test_spectrum_objective_on_a_tied_spectrum(self, rng):
        # Every cell of 3 variables of q = 3 and a class variable of 3
        # classes, 25 times: the variables and the classes are orthogonal,
        # so all 6 nontrivial eigenvalues are 1/m and lambda_2 = lambda_3.
        # Any orthonormal pair from that eigenspace gives the residual sum
        # p - 2/m.
        cells = np.indices((3, 3, 3, 3)).reshape(4, -1).T
        codes = np.tile(cells, (25, 1))
        ds = CategoricalDataset.from_codes(codes[:, :3], [["a", "b", "c"]] * 3)
        sup = SupplementaryData(codes[:, 3:], (("x", "y", "z"),), ("s",))
        assert len(ds.packed.rows) < ds.n_vars
        d_isqrt = 1.0 / np.sqrt(ds.counts)
        zc = z_full(ds) - ds.column_means
        values, vectors = np.linalg.eigh(d_isqrt[:, None] * (zc.T @ zc) * d_isqrt / ds.n_vars)
        assert_allclose(values[-6:], 1 / 3, rtol=1e-14)
        want = 2 - 2 / ds.n_vars
        for kind, source in (("identity", None), ("projector-off", sup)):
            fit = fit_constrained_mca(ds, ConstraintSpec(kind=kind, source=source), 2)
            direct = float(_direct_objective([fit.scores], fit.quantifications, ds))
            assert fit.objective == pytest.approx(direct, rel=1e-14)
            assert fit.objective == pytest.approx(want, rel=1e-14)
        for _ in range(3):  # another pair of tied vectors
            rotation, _ = np.linalg.qr(rng.normal(size=(6, 2)))
            b = np.sqrt(ds.n_obs * ds.n_vars) * d_isqrt[:, None] * (vectors[:, -6:] @ rotation)
            direct = float(_direct_objective([object_scores(ds, b)], b, ds))
            assert direct == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize(
        "case", ["identity", "by-class", "projector-off", "membership-projector"]
    )
    def test_matches_dense_projector_route(self, rng, case):
        # the last problem has Q = 150 categories: more than two row
        # blocks, not a multiple of one
        for size in [dict(n=40)] * 5 + [dict(n=400, m=5, q=30)]:
            ds, sup, _ = random_problem(rng, **size)
            kind, source = case, sup
            if case == "identity":
                source = None
            elif case == "membership-projector":
                # two clusters per class keep the top-2 eigenspace well separated
                source = init_random(sup, ClusterSpec.uniform(sup, 2), rng)
            elif case == "by-class":  # class averaging
                kind, source = "membership-projector", HierarchicalAssignment.by_class(sup)
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
            ConstraintSpec(kind="projector-off")
        with pytest.raises(SpecError):
            ConstraintSpec(kind="membership-projector", source=sup)
        with pytest.raises(SpecError):  # averaging is membership-projector over classes
            ConstraintSpec(kind="projector-on", source=sup)


class TestLabelPermutationEquivariance:
    def test_permuted_labels_same_objective(self, rng):
        ds, sup, spec = random_problem(rng)
        asg = nonempty_random_assignment(rng, sup, spec)
        b = update_B(asg, ds, 2)
        g = update_G(asg, ds, b)
        phi = objective_phi(asg, g, b, ds)
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
        b2 = update_B(permuted, ds, 2)
        g2 = update_G(permuted, ds, b2)
        assert objective_phi(permuted, g2, b2, ds) == pytest.approx(phi, abs=1e-10)
        # center rows of the permuted class are the originals, permuted
        offset = int(spec.first_rows[h][s])
        block = g[offset : offset + k]
        block2 = g2[offset : offset + k]
        assert_allclose(np.sort(block, axis=0), np.sort(block2, axis=0), atol=1e-8)


def _rows_taken(ds, sup, asg, rows):
    """The same problem restricted to (or repeating) the given rows."""
    ds2 = CategoricalDataset(codes=ds.codes[rows], labels=ds.labels, names=ds.names)
    sup2 = SupplementaryData(codes=sup.codes[rows], labels=sup.labels, names=sup.names)
    return ds2, HierarchicalAssignment(sup=sup2, spec=asg.spec, clusters=asg.clusters[rows])


def _phi_psi(ds, asg, p):
    b = update_B(asg, ds, p)
    g = update_G(asg, ds, b)
    return objective_phi(asg, g, b, ds), psi_value(asg, b, ds)


class TestObservationOrderAndMultiplicity:
    """At a fixed assignment, phi at the refreshed (B, G) depends on the
    rows only through their distribution: permuting the observations
    leaves phi and psi unchanged, and repeating every row c times leaves
    phi unchanged and multiplies psi by c."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sup=st.integers(1, 3),
        p=st.integers(1, 3),
        copies=st.integers(2, 3),
    )
    def test_permuted_and_repeated_rows(self, seed, n_sup, p, copies):
        rng = np.random.default_rng(seed)
        ds, sup, spec = random_problem(rng, n=40, m=3, q=3, n_sup=n_sup, r=2)
        asg = init_random(sup, spec, rng)
        phi, psi = _phi_psi(ds, asg, p)

        perm = rng.permutation(ds.n_obs)
        phi_perm, psi_perm = _phi_psi(*_rows_taken(ds, sup, asg, perm), p)
        assert abs(phi_perm - phi) <= 1e-10
        assert abs(psi_perm - psi) <= 1e-10 * abs(psi)

        repeated = np.tile(np.arange(ds.n_obs), copies)
        phi_rep, psi_rep = _phi_psi(*_rows_taken(ds, sup, asg, repeated), p)
        assert abs(phi_rep - phi) <= 1e-10
        assert abs(psi_rep - copies * psi) <= 1e-10 * copies * abs(psi)


def _tied_problem(rng, n_sup, copies):
    """A balanced full factorial of three 3-category variables, repeated:
    every supplementary variable either has one class or classes given by
    variable 1, and clusters are variable 0's categories inside each
    class.  Variable 2 is independent of the clusters, so the between
    spectrum is 1/m on variable 0's two dimensions, a multiple of 1/(H m)
    on variable 1's, and zero elsewhere: exact ties from integer counts."""
    grid = np.array(np.meshgrid(*[np.arange(3)] * 3, indexing="ij")).reshape(3, -1).T
    codes = np.tile(grid, (copies, 1))
    labels = tuple(tuple(f"c{x}" for x in range(3)) for _ in range(3))
    ds = CategoricalDataset(codes=codes, labels=labels, names=("v0", "v1", "v2"))
    by_v1 = rng.integers(0, 2, size=n_sup).astype(bool)
    sup_codes = np.where(by_v1, codes[:, [1]], 0)
    sup = SupplementaryData(
        codes=sup_codes,
        labels=tuple(labels[1] if b else ("all",) for b in by_v1),
        names=tuple(f"s{h}" for h in range(n_sup)),
    )
    spec = ClusterSpec(tuple((3,) * sup.r[h] for h in range(n_sup)))
    clusters = np.repeat(codes[:, [0]], n_sup, axis=1)
    return ds, HierarchicalAssignment(sup=sup, spec=spec, clusters=clusters)


def _span_gap(a, b):
    """Sine of the largest angle between span(a) and its nearest subspace
    of span(b): zero when span(a) lies inside span(b)."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return float(np.linalg.norm(qa - qb @ (qb.T @ qa), ord=2))


class TestReducedBStep:
    """The B-step solved on the K x K cluster Gram matrix agrees with the
    Q x Q eigenproblem it replaces: the same eigenvalues, the same column
    for every eigenvalue outside a tie (signs follow one convention), the
    same span for every tied group inside the top p, and columns inside
    the group's span where a tie straddles p."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sup=st.integers(1, 3),
        p=st.integers(1, 3),
        tied=st.booleans(),
    )
    def test_agrees_with_q_by_q_route(self, seed, n_sup, p, tied):
        rng = np.random.default_rng(seed)
        if tied:
            ds, asg = _tied_problem(rng, n_sup, copies=int(rng.integers(1, 3)))
        else:
            ds, sup, spec = random_problem(rng, n=50, m=4, q=4, n_sup=n_sup, r=2)
            asg = init_random(sup, spec, rng)
        reduced = update_B(asg, ds, p)
        values = between_spectrum(asg, ds)
        scale = np.maximum(1.0, np.maximum(np.abs(values[:-1]), np.abs(values[1:])))
        starts = np.flatnonzero(np.abs(np.diff(values)) > TOL.eig_tie_rel * scale) + 1
        bounds = [0, *starts.tolist(), values.size]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if lo >= p:
                break
            direct = update_B_qxq(asg, ds, hi)
            gap = min(
                values[lo - 1] - values[lo] if lo > 0 else np.inf,
                values[hi - 1] - values[hi] if hi < values.size else np.inf,
            )
            assert _span_gap(reduced[:, lo : min(hi, p)], direct[:, lo:hi]) <= 1e-12 / gap
        expected = update_B_qxq(asg, ds, p)
        assert psi_value(asg, reduced, ds) == pytest.approx(
            psi_value(asg, expected, ds), rel=1e-12, abs=1e-12
        )

    def test_tied_spectrum_is_tied(self, rng):
        ds, asg = _tied_problem(rng, 2, copies=1)
        values = between_spectrum(asg, ds)
        assert (np.abs(values[:2] - 1.0 / 3.0) < 1e-12).all()
        assert (np.abs(values[4:]) < 1e-12).all()

    def test_fit_above_the_rank_bound_never_solves_q_by_q(self, rng, monkeypatch):
        ds, sup, spec = random_problem(rng, n_sup=2, r=2, k_max=3)
        spec = ClusterSpec.uniform(sup, 2)  # K - H = 6 >= p
        orders = []
        direct = mscca.solver.sym_eig_top

        def recorded(matrix, p):
            orders.append(len(matrix))
            return direct(matrix, p)

        monkeypatch.setattr(mscca.solver, "sym_eig_top", recorded)
        sol = fit_mscca(ds, sup, spec, SolverOptions(p=2, n_starts=4, seed=1))
        assert orders == []
        assert_allclose(
            sol.quantifications, update_B_qxq(sol.assignment, ds, 2), atol=1e-10
        )

    def test_flat_two_cluster_fit_completes_without_q_by_q(self, monkeypatch):
        # K = 2, H = 1: the between target has rank 1 < p = 2, so every
        # B-step keeps one column from the K x K problem and completes the
        # second by the centered rule, solving no Q x Q problem.
        ds, _ = generate_clustered(GenSpec(q=4, k=2, n_obs=60, n_vars=5, seed=3))
        kept_counts, direct_orders = [], []
        gram, direct = mscca.solver.gram_eig_top, mscca.solver.sym_eig_top

        def gram_recorded(factors, p):
            eig, kept = gram(factors, p)
            kept_counts.extend(kept.tolist())
            return eig, kept

        def direct_recorded(matrix, p):
            direct_orders.append(len(matrix))
            return direct(matrix, p)

        monkeypatch.setattr(mscca.solver, "gram_eig_top", gram_recorded)
        monkeypatch.setattr(mscca.solver, "sym_eig_top", direct_recorded)
        sol = fit_cluster_ca(ds, 2, SolverOptions(p=2, n_starts=3, seed=5))
        assert kept_counts and set(kept_counts) == {1}
        assert direct_orders == []
        assert update_B(sol.assignment, ds, 2).tobytes() == sol.quantifications.tobytes()
        assert_allclose(
            sol.quantifications[:, :1], update_B_qxq(sol.assignment, ds, 2)[:, :1], atol=1e-10
        )

def _duplicated_rows_problem(rng):
    """A dataset of two identical blocks of rows, one flat cluster per
    block: both clusters have the overall profile, so the between target
    is zero (no kept column)."""
    base = random_dataset(rng, 20, 4, 3)
    codes = np.tile(base.codes, (2, 1))
    ds = CategoricalDataset(codes=codes, labels=base.labels, names=base.names)
    clusters = np.repeat([0, 1], base.n_obs)[:, None]
    return ds, HierarchicalAssignment(
        sup=single_class_sup(ds.n_obs), spec=ClusterSpec(((2,),)), clusters=clusters
    )


class TestCenteredCompletion:
    """Where F F' has fewer than p clearly positive eigenvalues, the B-step
    completes the columns past them by a fixed rule.  Every column of B is
    centered per variable, the centered normalization
    (1/(N H m)) sum_j B_j' Z_j^H' J Z_j^H B_j is I_p, and the kept columns
    are the Q x Q route's by span and by psi."""

    @staticmethod
    def _cases(rng):
        flat, _ = generate_clustered(GenSpec(q=5, k=2, n_obs=300, n_vars=10, seed=0))
        sol = fit_cluster_ca(flat, 2, SolverOptions(p=2, n_starts=3))
        yield flat, sol.assignment, 2, sol.quantifications
        ds, _ = generate_clustered(GenSpec(q=4, k=2, n_obs=120, n_vars=5, seed=1))
        sup = generate_supplementary(SupGenSpec(n_sup=2, r=2, seed=2), 120)
        spec = ClusterSpec(((2, 1), (1, 1)))  # K - H = 3 < p
        sol = fit_mscca(ds, sup, spec, SolverOptions(p=4, n_starts=3, seed=4))
        yield ds, sol.assignment, 4, sol.quantifications
        ds, asg = _duplicated_rows_problem(rng)
        yield ds, asg, 2, update_B(asg, ds, 2)
        # the partition kinds of fit_constrained_mca: one variable of two
        # classes averaged at p = 2 (K - H = 1), and a frozen assignment
        # with K - H = 3 < p = 4
        ds, _ = generate_clustered(GenSpec(q=4, k=2, n_obs=120, n_vars=5, seed=5))
        sup = generate_supplementary(SupGenSpec(n_sup=1, r=2, seed=6), 120)
        classes = HierarchicalAssignment.by_class(sup)
        cspec = ConstraintSpec(kind="membership-projector", source=classes)
        yield ds, classes, 2, fit_constrained_mca(ds, cspec, 2).quantifications
        sup = generate_supplementary(SupGenSpec(n_sup=2, r=2, seed=7), 120)
        asg = init_random(sup, ClusterSpec(((1, 1), (2, 1))), rng)
        cspec = ConstraintSpec(kind="membership-projector", source=asg)
        yield ds, asg, 4, fit_constrained_mca(ds, cspec, 4).quantifications

    def test_centered_normalized_and_kept_columns_match(self, rng):
        kept_counts = []
        for ds, asg, p, b in self._cases(rng):
            n_sup = asg.n_sup
            total = np.zeros((p, p))
            for j in range(ds.n_vars):
                block = slice(ds.offsets[j], ds.offsets[j] + ds.q[j])
                assert np.abs(ds.column_means[block] @ b[block]).max() <= 1e-12
                zj = center_columns(z_var_stacked(ds, n_sup, j))
                total += b[block].T @ zj.T @ zj @ b[block]
            total /= ds.n_obs * n_sup * ds.n_vars
            assert np.abs(total - np.eye(p)).max() <= 1e-12
            values = between_spectrum(asg, ds)
            kept = int(np.count_nonzero(values > TOL.eig_tie_rel * np.maximum(1.0, values)))
            kept_counts.append(kept)
            direct = update_B_qxq(asg, ds, p)
            if kept:
                assert _span_gap(b[:, :kept], direct[:, :kept]) <= 1e-10
            assert psi_value(asg, b, ds) == pytest.approx(
                psi_value(asg, direct, ds), rel=1e-12, abs=1e-12
            )
        assert kept_counts == [1, 3, 0, 1, 3]


def _column_signs(a, b):
    """Per column, the sign s with a[:, j] ~ s * b[:, j]."""
    return np.where((a * b).sum(axis=0) < 0, -1.0, 1.0)


class TestRelabeling:
    """At a fixed assignment, renaming the categories of a variable or the
    classes of a supplementary variable is a relabeling of the same
    problem: phi is unchanged, B's rows move with the categories and G's
    rows with the classes (columns up to sign)."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sup=st.integers(1, 3),
        p=st.integers(1, 3),
    )
    def test_relabeled_categories_and_classes(self, seed, n_sup, p):
        rng = np.random.default_rng(seed)
        ds, sup, spec = random_problem(rng, n=40, m=3, q=4, n_sup=n_sup, r=3, k_max=3)
        asg = init_random(sup, spec, rng)
        b = update_B(asg, ds, p)
        g = update_G(asg, ds, b)
        phi = objective_phi(asg, g, b, ds)

        j, h = int(rng.integers(ds.n_vars)), int(rng.integers(sup.n_sup))
        cat = rng.permutation(ds.q[j])  # category c of variable j becomes cat[c]
        cls = rng.permutation(sup.r[h])  # class s of variable h becomes cls[s]
        codes = np.array(ds.codes)
        codes[:, j] = cat[codes[:, j]]
        labels = list(ds.labels)
        labels[j] = tuple(np.array(ds.labels[j])[np.argsort(cat)])
        ds2 = CategoricalDataset(codes=codes, labels=tuple(labels), names=ds.names)
        sup_codes = np.array(sup.codes)
        sup_codes[:, h] = cls[sup_codes[:, h]]
        sup_labels = list(sup.labels)
        sup_labels[h] = tuple(np.array(sup.labels[h])[np.argsort(cls)])
        sup2 = SupplementaryData(codes=sup_codes, labels=tuple(sup_labels), names=sup.names)
        counts = list(spec.counts)
        counts[h] = tuple(np.array(spec.counts[h])[np.argsort(cls)])
        spec2 = ClusterSpec(tuple(counts))
        asg2 = HierarchicalAssignment(sup=sup2, spec=spec2, clusters=asg.clusters)

        b2 = update_B(asg2, ds2, p)
        g2 = update_G(asg2, ds2, b2)
        assert abs(objective_phi(asg2, g2, b2, ds2) - phi) <= 1e-10

        if spec.k_total - sup.n_sup < p:
            return  # completed columns follow the category order: not equivariant
        b_rows = np.arange(ds.total_categories)
        b_rows[ds.offsets[j] : ds.offsets[j] + ds.q[j]] = ds.offsets[j] + cat
        g_rows = np.concatenate(
            [
                spec2.first_rows[v][cls[s] if v == h else s] + np.arange(spec.k_of(v, s))
                for v in range(sup.n_sup)
                for s in range(sup.r[v])
            ]
        )
        signs = _column_signs(b2[b_rows], b)
        assert_allclose(b2[b_rows] * signs, b, atol=1e-8)
        assert_allclose(g2[g_rows] * signs, g, atol=1e-8)


def tiny_problem(rng):
    """A few dozen observations of 1-3 variables with 2-3 categories, 1-3
    supplementary variables of 1-3 classes with 1-4 clusters each, and a
    random p, start count and cycle cap.  Coincident cluster profiles
    (a B-step of too low rank), emptied clusters, capped starts and
    starts settling at different cycles are all common."""
    n, m, q = int(rng.integers(8, 40)), int(rng.integers(1, 4)), int(rng.integers(2, 4))
    codes = rng.integers(0, q, size=(n, m))
    codes[:q] = np.arange(q)[:, None]  # every category occurs
    labels = tuple(tuple(f"c{x}" for x in range(q)) for _ in range(m))
    ds = CategoricalDataset(codes=codes, labels=labels, names=tuple(f"v{j}" for j in range(m)))
    n_sup, r = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    sup_codes = rng.integers(0, r, size=(n, n_sup))
    sup_codes[:r] = np.arange(r)[:, None]
    sup = SupplementaryData(
        codes=sup_codes,
        labels=tuple(tuple(f"g{x}" for x in range(r)) for _ in range(n_sup)),
        names=tuple(f"s{h}" for h in range(n_sup)),
    )
    spec = ClusterSpec(
        tuple(
            tuple(int(rng.integers(1, min(4, size) + 1)) for size in sup.class_sizes(h))
            for h in range(n_sup)
        )
    )
    options = SolverOptions(
        p=int(rng.integers(1, min(3, ds.total_categories - m) + 1)),
        n_starts=int(rng.integers(2, 9)),
        max_iter=int(rng.integers(2, 15)),
        seed=int(rng.integers(2**31)),
    )
    return ds, sup, spec, options


def assert_identical_fits(batched, sequential):
    assert batched.start_index == sequential.start_index
    assert batched.assignment.clusters.tobytes() == sequential.assignment.clusters.tobytes()
    assert batched.centers.tobytes() == sequential.centers.tobytes()
    assert batched.quantifications.tobytes() == sequential.quantifications.tobytes()
    for counts in ("table", "sizes"):  # the oracle recounts the winner's clusters
        got, want = getattr(batched, counts), getattr(sequential, counts)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert batched.objective.hex() == sequential.objective.hex()
    assert batched.psi.hex() == sequential.psi.hex()
    assert batched.converged == sequential.converged
    assert [[x.hex() for x in t] for t in batched.start_traces] == [
        [x.hex() for x in t] for t in sequential.start_traces
    ]
    assert batched.objective_trace == batched.start_traces[batched.start_index]


class TestBatchedEngine:
    """``fit_mscca`` runs its starts in chunks, as one array program per
    chunk; every start must come out bit for bit as it does alone (the
    sequential oracle ``conftest.fit_mscca_sequential``), whatever the
    chunk size."""

    @given(seed=st.integers(0, 2**32 - 1), n_sup=st.integers(1, 3), p=st.integers(1, 3))
    def test_matches_sequential_oracle(self, seed, n_sup, p):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 80))
        ds, sup, spec = random_mixed_problem(rng, n=n, m=4, q=3, n_sup=n_sup)
        options = SolverOptions(
            p=p,
            n_starts=int(rng.integers(1, 9)),
            max_iter=int(rng.integers(1, 15)),
            seed=int(rng.integers(2**31)),
        )
        assert_identical_fits(
            fit_mscca(ds, sup, spec, options), fit_mscca_sequential(ds, sup, spec, options)
        )

    def test_mixed_chunks_repairs_caps_and_settling_match_oracle(self, monkeypatch):
        # Tiny problems 0-29 cover, between them, a B-step whose chunk mixes
        # starts with p kept columns and completed starts (kept < p),
        # accepted and rejected repairs, starts capped by max_iter and
        # starts settling at different cycles; a flat K = 2, p = 2 fit
        # completes every step.
        flat, _ = generate_clustered(GenSpec(q=4, k=2, n_obs=60, n_vars=5, seed=3))
        cases = [tiny_problem(np.random.default_rng(seed)) for seed in range(30)]
        flat_spec = ClusterSpec(((2,),))
        cases.append((flat, single_class_sup(60), flat_spec, SolverOptions(n_starts=5, seed=5)))
        names = ("mixed", "completed", "accepted", "rejected", "capped", "settled")
        events = dict.fromkeys(names, 0)
        gram, phi = mscca.solver.gram_eig_top, mscca.solver.objective_phi
        compared = []

        def gram_recorded(factors, p):
            eig, kept = gram(factors, p)
            completed = kept < p
            events["mixed"] += bool(completed.any() and not completed.all())
            events["completed"] += int(completed.sum())
            return eig, kept

        def phi_recorded(*args):
            compared.append(phi(*args))
            return compared[-1]

        fits = []
        with monkeypatch.context() as patch:
            patch.setattr(mscca.solver, "gram_eig_top", gram_recorded)
            patch.setattr(mscca.solver, "objective_phi", phi_recorded)
            for ds, sup, spec, options in cases:
                fits.append(fit_mscca(ds, sup, spec, options))
        # The engine evaluates phi directly only to judge a repair:
        # repaired first, current second.
        for repaired, current in zip(compared[::2], compared[1::2]):
            events["accepted" if repaired <= current else "rejected"] += 1
        for (ds, sup, spec, options), sol in zip(cases, fits):
            lengths = [len(t) for t in sol.start_traces]
            events["capped"] += lengths.count(options.max_iter)
            events["settled"] += len({n for n in lengths if n < options.max_iter}) > 1
            assert_identical_fits(sol, fit_mscca_sequential(ds, sup, spec, options))
        assert all(events.values()), events

    def test_finals_are_objective_phi_of_the_ends(self):
        # Each start's final objective, evaluated from the count table its
        # end record keeps, has the bits of objective_phi at its end, in a
        # chunk of several starts; the last problem has K Q > 8192.
        cases = [tiny_problem(np.random.default_rng(seed)) for seed in range(20)]
        ds, _ = generate_clustered(GenSpec(q=40, k=3, n_obs=2000, n_vars=60, seed=4))
        sup = generate_supplementary(SupGenSpec(n_sup=2, r=3, seed=5), 2000)
        cases.append((ds, sup, ClusterSpec.uniform(sup, 3), SolverOptions(n_starts=3, seed=6)))
        assert cases[-1][2].k_total * ds.total_categories > 8192
        for ds, sup, spec, options in cases:
            seeds = np.random.SeedSequence(options.seed).spawn(max(options.n_starts, 3))
            for end in mscca.solver._run_start(ds, sup, spec, options, seeds):
                ended = HierarchicalAssignment(sup=sup, spec=spec, clusters=end.clusters)
                phi = objective_phi(ended, end.centers, end.quantifications, ds)
                assert end.trace[-1].hex() == phi.hex()

    def test_every_end_table_matches_a_recount(self, monkeypatch):
        # Each start's end record holds the count table and sizes of its end
        # clusters, however it ended.  A start that stops at its fixed point
        # ran one B-step fewer than its trace has entries, so a chunk's
        # fixed-point ends are its trace entries less its B-steps.  The one
        # chunk of tiny problem 44 holds all four kinds of end.
        cases = [tiny_problem(np.random.default_rng(seed)) for seed in (*range(30), 44)]
        run, step, phi = (
            mscca.solver._run_start, mscca.solver._between_quantify, mscca.solver.objective_phi
        )
        steps, compared, chunks = [], [], []

        def step_counted(table, *args):
            steps.append(len(table))
            return step(table, *args)

        def phi_recorded(*args):
            compared.append(phi(*args))
            return compared[-1]

        def run_recorded(dataset, sup, spec, options, seeds):
            steps.clear()
            compared.clear()
            ends = run(dataset, sup, spec, options, seeds)
            # repaired first, current second, per repair tried
            accepted = sum(a <= b for a, b in zip(compared[::2], compared[1::2]))
            fixed = sum(len(end.trace) for end in ends) - sum(steps)
            converged = sum(end.converged for end in ends)
            kinds = {
                "repaired": accepted,
                "capped": len(ends) - converged,
                "settled": converged - fixed,
                "fixed": fixed,
            }
            chunks.append((dataset, sup, spec, ends, kinds))
            return ends

        monkeypatch.setattr(mscca.solver, "_between_quantify", step_counted)
        monkeypatch.setattr(mscca.solver, "objective_phi", phi_recorded)
        monkeypatch.setattr(mscca.solver, "_run_start", run_recorded)
        for ds, sup, spec, options in cases:
            fit_mscca(ds, sup, spec, options)
        for ds, sup, spec, ends, _kinds in chunks:
            for end in ends:
                ended = HierarchicalAssignment(sup=sup, spec=spec, clusters=end.clusters)
                table, sizes = cluster_counts(ended, ds)
                assert end.table.dtype == table.dtype and end.table.tobytes() == table.tobytes()
                assert end.sizes.dtype == sizes.dtype and end.sizes.tobytes() == sizes.tobytes()
        seen = [kinds for *_, kinds in chunks]
        assert all(any(kinds[name] for kinds in seen) for name in seen[0]), seen
        assert any(all(kinds.values()) for kinds in seen), seen

    def test_result_independent_of_chunk_size(self, rng, monkeypatch):
        ds, sup, spec = random_mixed_problem(rng, n=60, m=4, q=3, n_sup=2)
        options = SolverOptions(n_starts=7, max_iter=8, seed=4)
        per_start = mscca.solver._start_bytes(ds, spec, options.p)
        real_run = mscca.solver._run_start
        fits = []
        for budget, chunk in ((1, 1), (3 * per_start, 3), (10**12, 7)):
            chunks = []

            def recorded(dataset, sup, spec, options, seeds):
                chunks.append(len(seeds))
                return real_run(dataset, sup, spec, options, seeds)

            monkeypatch.setattr(mscca.solver, "_CHUNK_BYTES", budget)
            monkeypatch.setattr(mscca.solver, "_run_start", recorded)
            fits.append(fit_mscca(ds, sup, spec, options))
            assert chunks == [chunk] * (7 // chunk) + ([7 % chunk] if 7 % chunk else [])
        for sol in fits[1:]:
            assert_identical_fits(sol, fits[0])

    def test_winner_owns_its_arrays(self, rng, monkeypatch):
        # The winner's arrays are its own, not views that keep a whole
        # chunk's end arrays alive.
        ds, sup, spec = random_mixed_problem(rng, n=60, m=4, q=3, n_sup=2)
        options = SolverOptions(n_starts=7, max_iter=8, seed=4)
        per_start = mscca.solver._start_bytes(ds, spec, options.p)
        monkeypatch.setattr(mscca.solver, "_CHUNK_BYTES", 2 * per_start)
        assert mscca.solver._chunk_size(ds, spec, options.p) == 2  # four chunks
        sol = fit_mscca(ds, sup, spec, options)
        arrays = (sol.centers, sol.quantifications, sol.table, sol.sizes, sol.assignment.clusters)
        for array in arrays:
            assert array.base is None

    def test_memory_bounded_at_criterion_10_size(self):
        ds, truth = generate_clustered(GenSpec(q=7, k=3, n_obs=300, n_vars=10, seed=10))
        sup = generate_supplementary(SupGenSpec(n_sup=3, r=3, seed=11), 300)
        spec = ClusterSpec.uniform(sup, 3)
        assert (ds.total_categories, spec.k_total) == (70, 27)
        fit_mscca(ds, sup, spec, SolverOptions(n_starts=1, seed=0))  # lazy set-up
        peak = traced_peak(lambda: fit_mscca(ds, sup, spec, SolverOptions(n_starts=100, seed=0)))
        assert peak <= 4 * 2**20


class TestFixedPointStop:
    """A start whose assignment step moves no entry ends there, with the
    record the repeat cycle would give it (the sequential oracle still
    runs that cycle; ``TestBatchedEngine``), and object scores are formed
    only for the starts that go on to an assignment step."""

    def test_settled_starts_skip_their_repeat_cycle(self, monkeypatch):
        ds, sup, spec = criterion_10_problem()
        steps = []
        real = mscca.solver._between_quantify

        def counted(table, *args):
            steps.append(len(table))
            return real(table, *args)

        monkeypatch.setattr(mscca.solver, "_between_quantify", counted)
        sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=20, seed=0))
        # every start of this fit ends at its fixed point, before the cap
        assert max(len(t) for t in sol.start_traces) < sol.options.max_iter
        assert sum(steps) == sum(len(t) - 1 for t in sol.start_traces)

    def test_scores_only_for_starts_that_go_on(self, monkeypatch):
        ds, sup, spec = criterion_10_problem()
        scored, assigned = [], []
        scores, nearest = mscca.solver.object_scores, mscca.solver._nearest_clusters

        def scores_counted(dataset, quantifications):
            scored.append(len(quantifications))
            return scores(dataset, quantifications)

        def nearest_counted(values, *args):
            assigned.append(len(values))
            return nearest(values, *args)

        monkeypatch.setattr(mscca.solver, "object_scores", scores_counted)
        monkeypatch.setattr(mscca.solver, "_nearest_clusters", nearest_counted)
        sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=20, max_iter=4, seed=0))
        assert [len(t) for t in sol.start_traces].count(4) > 0  # capped starts
        assert scored == assigned


def criterion_10_problem():
    ds, _ = generate_clustered(GenSpec(q=7, k=3, n_obs=300, n_vars=10, seed=10))
    sup = generate_supplementary(SupGenSpec(n_sup=3, r=3, seed=11), 300)
    return ds, sup, ClusterSpec.uniform(sup, 3)


class TestChunkSizing:
    """The one memory budget ``_CHUNK_BYTES`` runs paper-sized fits many
    starts at a time and fits of tens of thousands of rows one at a time,
    and ``_start_bytes`` bounds what one more start adds to the peak."""

    def test_criterion_10_size_runs_32_starts_or_more(self):
        ds, _, spec = criterion_10_problem()
        assert mscca.solver._chunk_size(ds, spec, 2) >= 32

    @pytest.mark.parametrize("n_obs, n_sup", [(20_000, 3), (50_000, 2)])
    def test_tens_of_thousands_of_rows_run_one_start(self, n_obs, n_sup):
        # the perfbench tall and cli sizes
        ds, _ = generate_clustered(GenSpec(q=5, k=3, n_obs=n_obs, n_vars=20, seed=1))
        sup = generate_supplementary(SupGenSpec(n_sup=n_sup, r=3, seed=2), n_obs)
        assert mscca.solver._chunk_size(ds, ClusterSpec.uniform(sup, 3), 2) == 1

    def test_start_bytes_bound_the_growth_per_start(self, monkeypatch):
        ds, sup, spec = criterion_10_problem()
        per_start = mscca.solver._start_bytes(ds, spec, 2)
        fit_mscca(ds, sup, spec, SolverOptions(n_starts=1, seed=0))  # lazy set-up
        peaks = []
        for chunk in (17, 34):
            monkeypatch.setattr(mscca.solver, "_CHUNK_BYTES", chunk * per_start)
            assert mscca.solver._chunk_size(ds, spec, 2) == chunk
            options = SolverOptions(n_starts=34, seed=0)
            peaks.append(traced_peak(lambda: fit_mscca(ds, sup, spec, options)))
        assert peaks[1] - peaks[0] <= 17 * per_start

    def test_criterion_10_peak_within_budget(self):
        ds, sup, spec = criterion_10_problem()
        fit_mscca(ds, sup, spec, SolverOptions(n_starts=1, seed=0))  # lazy set-up
        peak = traced_peak(lambda: fit_mscca(ds, sup, spec, SolverOptions(n_starts=100, seed=0)))
        assert peak <= mscca.solver._CHUNK_BYTES <= 3.6 * 2**20


class TestPsiFromEndCounts:
    """``fit_mscca`` reads psi from the count table the engine kept for the
    winning start; it has the bytes of the recount ``psi_value``."""

    @given(seed=st.integers(0, 2**32 - 1), n_sup=st.integers(1, 3), p=st.integers(1, 3))
    def test_random_designs(self, seed, n_sup, p):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 80))
        ds, sup, spec = random_mixed_problem(rng, n=n, m=4, q=3, n_sup=n_sup)
        options = SolverOptions(
            p=p,
            n_starts=int(rng.integers(1, 9)),
            max_iter=int(rng.integers(1, 15)),
            seed=int(rng.integers(2**31)),
        )
        sol = fit_mscca(ds, sup, spec, options)
        assert sol.psi.hex() == psi_value(sol.assignment, sol.quantifications, ds).hex()

    def test_criterion_10_fit(self):
        ds, sup, spec = criterion_10_problem()
        sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=100, seed=0))
        assert sol.psi.hex() == psi_value(sol.assignment, sol.quantifications, ds).hex()


class TestChunkedObjective:
    def test_large_blocks_match_sequential_oracle(self):
        # N p = 10 000: a stacked einsum over the chunk's N x p blocks
        # rounds otherwise than each start's own, so every start's final
        # trace entry, and the objective, came out of the chunk different.
        ds, _ = generate_clustered(GenSpec(q=3, k=2, n_obs=5000, n_vars=2, seed=1))
        sup = generate_supplementary(SupGenSpec(n_sup=1, r=2, seed=2), 5000)
        spec = ClusterSpec.uniform(sup, 2)
        options = SolverOptions(n_starts=4, max_iter=10, seed=3)
        assert mscca.solver._chunk_size(ds, spec, options.p) > 1
        assert_identical_fits(
            fit_mscca(ds, sup, spec, options), fit_mscca_sequential(ds, sup, spec, options)
        )


    @pytest.mark.parametrize("n_obs", [300, 6000])
    def test_stacked_values_are_the_lone_values(self, n_obs, monkeypatch):
        # N p = 600 and 12 000 entries per (variable, block) difference: on
        # either side of 8192, where a stacked numpy reduction could round
        # otherwise than a lone one.  No start is reduced by its own einsum.
        rng = np.random.default_rng(n_obs)
        ds = random_dataset(rng, n_obs, 3, 3)
        blocks = [rng.normal(size=(5, n_obs, 2)) for _ in range(2)]
        quantifications = rng.normal(size=(5, ds.total_categories, 2))
        lone = [
            float(_direct_objective([b[s] for b in blocks], quantifications[s], ds))
            for s in range(5)
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("einsum called")

        monkeypatch.setattr(np, "einsum", forbidden)
        stacked = _direct_objective(blocks, quantifications, ds)
        assert [v.hex() for v in stacked.tolist()] == [v.hex() for v in lone]


class TestNearestClusters:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sup=st.integers(1, 3),
        p=st.integers(1, 3),
        n_stack=st.integers(0, 3),
    )
    def test_running_minimum_matches_argmin(self, seed, n_sup, p, n_stack):
        # Scores and centers drawn from {-1, 0, 1} give exact distance ties,
        # and per-class cluster counts of 1-4 leave padded slots in the
        # smaller classes: the nearest center is argmin's, the lowest
        # cluster on ties, for a lone start (n_stack 0) and for stacks.
        rng = np.random.default_rng(seed)
        asg, _, _ = assignment_step_case(rng, n_sup, p)
        sup, spec = asg.sup, asg.spec
        stack = (n_stack,) if n_stack else ()
        scores = rng.integers(-1, 2, size=(*stack, sup.n_obs, p)).astype(float)
        centers = rng.integers(-1, 2, size=(*stack, spec.k_total, p)).astype(float)
        got = mscca.solver._nearest_clusters(scores, centers, sup, spec)
        assert got.shape == (*stack, sup.n_obs, n_sup)
        for s in np.ndindex(stack):
            want = update_U_by_class(scores[s], centers[s], sup, spec).clusters
            assert np.array_equal(got[s], want)

    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_einsum_distances_bit_for_bit(self, p, monkeypatch):
        # Random real scores and centers, with exact ties built in: in each
        # class of two or more clusters, slot 1 mirrors slot 0's center, and
        # a fifth of the observations score 0, equally far from both; a tie
        # goes to the lower slot.  The oracle takes argmin over einsum
        # distances of every slot; the assignment step calls no einsum.
        rng = np.random.default_rng(p)
        ties = 0
        for n_stack in (0, 1, 3):
            asg, _, _ = assignment_step_case(rng, 2, p)
            sup, spec = asg.sup, asg.spec
            stack = (n_stack,) if n_stack else ()
            scores = rng.normal(size=(*stack, sup.n_obs, p))
            scores[..., rng.random(sup.n_obs) < 0.2, :] = 0.0
            centers = rng.normal(size=(*stack, spec.k_total, p))
            want = np.zeros((*stack, sup.n_obs, sup.n_sup), dtype=np.int64)
            for h, codes in enumerate(sup.codes.T):
                counts = np.array(spec.counts[h])
                first = spec.first_rows[h]
                mirrored = first[counts > 1]
                centers[..., mirrored + 1, :] = -centers[..., mirrored, :]
                slots = np.arange(counts.max())
                own = first[:, None] + np.where(slots < counts[:, None], slots, 0)
                gaps = scores[..., None, :] - np.take(centers, own[codes], axis=-2)
                dist = np.einsum("...d,...d->...", gaps, gaps)
                want[..., h] = dist.argmin(axis=-1)
                low = dist.min(axis=-1, keepdims=True)
                ties += int(((dist == low).sum(axis=-1) > 1 + (slots.size - counts[codes])).sum())

            def forbidden(*args, **kwargs):
                raise AssertionError("einsum called")

            with monkeypatch.context() as patch:
                patch.setattr(np, "einsum", forbidden)
                got = mscca.solver._nearest_clusters(scores, centers, sup, spec)
            assert np.array_equal(got, want)
        assert ties


class TestConstrainedSolveMemory:
    """The Q x Q solve of ``fit_constrained_mca``'s ``identity`` and
    ``projector-off`` kinds holds its target and the symmetric part of
    it, in which LAPACK's ``dsyevr`` works, next to a Q x k block of
    vectors (LAPACK's workspace ``tracemalloc`` does not see).  Counting
    the Burt matrix briefly adds one variable's pair cells; removal
    subtracts the between part one block of rows at a time.
    ``membership-projector`` over the classes (averaging) runs the fit's
    K x K B-step and forms no Q x Q array."""

    @pytest.mark.parametrize("kind", ["projector-off", "identity", "by-class"])
    def test_peak_bounded_by_a_few_q_by_q_arrays(self, kind, monkeypatch):
        ds, _ = generate_clustered(GenSpec(q=40, k=3, n_obs=1000, n_vars=12, seed=12))
        sup = generate_supplementary(SupGenSpec(n_sup=3, r=3, seed=13), 1000)
        big_q = ds.total_categories
        assert 400 <= big_q <= 800
        orders = []
        direct = mscca.solver.sym_eig_top

        def recorded(matrix, p):
            orders.append(len(matrix))
            return direct(matrix, p)

        monkeypatch.setattr(mscca.solver, "sym_eig_top", recorded)
        if kind == "by-class":
            cspec = ConstraintSpec("membership-projector", HierarchicalAssignment.by_class(sup))
        else:
            cspec = ConstraintSpec(kind=kind, source=None if kind == "identity" else sup)
        fit_constrained_mca(ds, cspec, 2)  # lazy set-up
        peak = traced_peak(lambda: fit_constrained_mca(ds, cspec, 2))
        if kind == "by-class":
            assert orders == []
            assert peak <= 0.5 * big_q * big_q * 8
            return
        assert orders == [big_q, big_q]
        # eigh's full Q x Q output where numpy's BLAS exports no dsyevr
        bound = 2.5 if mscca.linalg._dsyevr() is not None else 3.25
        assert peak <= bound * big_q * big_q * 8

    def test_burt_count_bounded_with_near_q_squared_pair_cells(self):
        # variable 0 has 9 N = 153,000 pair cells, near Q^2 = 160,000: the
        # float target, one variable's cells and their q_j x Q bincount are
        # held together, never two variables' cells
        ds, _ = generate_clustered(GenSpec(q=40, k=3, n_obs=17_000, n_vars=10, seed=12))
        big_q = ds.total_categories
        assert 0.9 * big_q * big_q <= 17_000 * 9 <= big_q * big_q
        _centered_burt(ds, 3)  # lazy set-up
        peak = traced_peak(lambda: _centered_burt(ds, 3))
        assert peak <= 2.25 * big_q * big_q * 8


class TestSolveBudget:
    """The Q x Q solve of ``identity`` and ``projector-off`` checks its
    bytes, 2.5 Q x Q arrays of doubles, against ``_memory_budget`` before
    it builds any Q x Q array; the budget is patched, nothing is allocated
    to see what happens."""

    @pytest.mark.parametrize("kind", ["projector-off", "identity"])
    def test_over_budget_raises_before_any_q_by_q_array(self, kind, monkeypatch):
        ds, _ = generate_clustered(GenSpec(q=5, k=3, n_obs=200, n_vars=6, seed=1))
        sup = generate_supplementary(SupGenSpec(n_sup=2, r=3, seed=2), 200)
        cspec = ConstraintSpec(kind=kind, source=None if kind == "identity" else sup)
        big_q = ds.total_categories
        need = int(2.5 * 8 * big_q * big_q)
        burt = mscca.solver._centered_burt

        def forbidden(*args):
            raise AssertionError("a Q x Q target was built")

        monkeypatch.setattr(mscca.solver, "_centered_burt", forbidden)
        monkeypatch.setattr(mscca.solver, "_memory_budget", lambda: need - 1)
        with pytest.raises(MemoryError) as err:
            fit_constrained_mca(ds, cspec, 2)
        assert f"Q = {big_q} categories needs about {need} bytes" in str(err.value)
        assert f"the {need - 1} bytes of physical memory" in str(err.value)
        monkeypatch.setattr(mscca.solver, "_centered_burt", burt)
        monkeypatch.setattr(mscca.solver, "_memory_budget", lambda: need)
        fit_constrained_mca(ds, cspec, 2)  # at the budget, the solve runs

    def test_budget_is_physical_memory(self):
        import os

        budget = mscca.solver._memory_budget()
        assert budget == os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") > 0

    def test_fit_and_k_by_k_solve_stay_within_k_by_q_memory(self, monkeypatch):
        # one column of 2,500 distinct labels: the fit and the class-average
        # B-step hold K x Q tables, no Q x Q array, and check no budget
        n, big_q, rows = 3000, 2509, np.arange(3000)
        codes = np.stack([rows % 2500, rows % 3, rows // 1000, rows % 7 % 3], axis=1)
        labels = [[f"c{c}" for c in range(k)] for k in (2500, 3, 3, 3)]
        ds = CategoricalDataset.from_codes(codes, labels)
        sup = generate_supplementary(SupGenSpec(n_sup=1, r=2, seed=3), n)
        assert ds.total_categories == big_q
        monkeypatch.setattr(mscca.solver, "_memory_budget", lambda: 0)
        spec = ClusterSpec.uniform(sup, 2)
        options = SolverOptions(n_starts=1, max_iter=3, seed=0)
        by_class = ConstraintSpec("membership-projector", HierarchicalAssignment.by_class(sup))
        fit_mscca(ds, sup, spec, options)  # lazy set-up
        for call in (
            lambda: fit_mscca(ds, sup, spec, options),
            lambda: fit_constrained_mca(ds, by_class, 2),
        ):
            assert traced_peak(call) <= 0.05 * big_q * big_q * 8


class TestCenteredBurt:
    @staticmethod
    def assert_matches_dense_indicator(rng, n, q):
        codes = np.stack([rng.permutation(np.arange(n) % k) for k in q], axis=1)
        ds = CategoricalDataset.from_codes(codes, [[f"c{c}" for c in range(k)] for k in q])
        assert ds.total_categories == sum(q)
        z = z_full(ds)
        mu = ds.column_means
        for n_stack in (1, 3):
            oracle = n_stack * (z.T @ z - n * np.outer(mu, mu))
            assert _centered_burt(ds, n_stack).tobytes() == oracle.tobytes()
        return ds

    @pytest.mark.parametrize(
        "n, q",
        [
            (40, [2] * 6),
            # more than two row blocks, not a multiple of one
            (50, [30] * 5),
            (7, [4] * 3),
            (60, [3, 7, 2, 11, 5]),
            (50, [2, 5, 3, 7]),
        ],
    )
    def test_matches_dense_indicator(self, rng, n, q):
        ds = self.assert_matches_dense_indicator(rng, n, q)
        assert len(ds.packed.rows) == ds.n_vars  # below 64 observations per joint code

    @pytest.mark.parametrize(
        "n, q",
        [
            (80, [2] * 9),  # one long group of binary variables and a shorter one
            (80, [2, 2, 2, 3, 5, 7, 40, 2, 2]),  # groups split mid-list, q = 40 alone
            (80, [3, 70, 2, 2, 2]),  # q = 70 above the bound, alone
            (80, [2, 3]),  # one group holds every variable
            (200, [2, 2, 40, 2, 3, 50, 2, 2, 2, 30]),  # Q = 135, three row blocks
        ],
    )
    def test_packed_matches_dense_indicator(self, rng, monkeypatch, n, q):
        # packing forced: 64 joint codes at most, one observation per code
        monkeypatch.setattr(mscca.data, "_PACK_CODES", 64)
        monkeypatch.setattr(mscca.data, "_PACK_OBS", 1)
        ds = self.assert_matches_dense_indicator(rng, n, q)
        assert len(ds.packed.rows) < ds.n_vars
