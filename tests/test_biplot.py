import numpy as np
import pytest
from numpy.testing import assert_allclose

from mscca import (
    ClusterSpec,
    HierarchicalAssignment,
    SolverOptions,
    biplot_coordinates,
    contingency,
    encode_dataset,
    encode_supplementary,
    fit_mscca,
    generate_illustration,
    rescale_spread,
    residual_comparison,
    stacked_indicators,
    standardized_residuals,
)
from mscca.biplot import BiplotModel
from mscca.errors import DegenerateGeometryError, EmptyClusterError, MassError, ShapeError
from mscca.solver import update_B, update_G, init_random

from conftest import random_problem, z_full


def two_singleton_model():
    ds = encode_dataset([["a"], ["b"]])
    sup = encode_supplementary([["x"], ["x"]])
    spec = ClusterSpec(counts=((2,),))
    asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=np.array([[0], [1]]))
    return contingency(asg, stacked_indicators(ds, 1), order="natural")


class TestContingency:
    def test_two_singletons_diagonal(self):
        model = two_singleton_model()
        assert_allclose(model.table, np.diag([0.5, 0.5]))

    def test_total_mass_one(self, rng):
        ds, sup, spec = random_problem(rng, n_sup=3)
        asg = init_random(sup, spec, rng)
        model = contingency(asg, stacked_indicators(ds, sup.n_sup))
        assert model.table.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_cluster_rows_are_class_frequencies(self, rng):
        ds, sup, _ = random_problem(rng)
        spec = ClusterSpec.uniform(sup, 1)
        asg = HierarchicalAssignment(
            sup=sup, spec=spec, clusters=np.zeros((sup.n_obs, sup.n_sup), dtype=np.int64)
        )
        view = stacked_indicators(ds, sup.n_sup)
        model = contingency(asg, view)
        n, m, n_sup = ds.n_obs, ds.n_vars, sup.n_sup
        row = 0
        for h in range(n_sup):
            for s in range(sup.r[h]):
                members = sup.members(h, s)
                expected = z_full(view)[members].sum(axis=0) / (n * n_sup * m)
                assert_allclose(model.table[row], expected, atol=1e-12)
                row += 1

    def test_observation_permutation_invariant(self, rng):
        ds, sup, spec = random_problem(rng)
        asg = init_random(sup, spec, rng)
        model = contingency(asg, stacked_indicators(ds, sup.n_sup))
        perm = rng.permutation(ds.n_obs)
        ds2 = type(ds)(codes=ds.codes[perm], labels=ds.labels, names=ds.names)
        sup2 = type(sup)(codes=sup.codes[perm], labels=sup.labels, names=sup.names)
        asg2 = HierarchicalAssignment(sup=sup2, spec=spec, clusters=asg.clusters[perm])
        model2 = contingency(asg2, stacked_indicators(ds2, sup.n_sup))
        assert_allclose(model.table, model2.table, atol=1e-15)

    def test_empty_cluster_rejected(self):
        ds = encode_dataset([["a"], ["b"]])
        sup = encode_supplementary([["x"], ["x"]])
        spec = ClusterSpec(counts=((2,),))
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=np.zeros((2, 1), dtype=np.int64))
        with pytest.raises(EmptyClusterError):
            contingency(asg, stacked_indicators(ds, 1))

    def test_size_order_labels_largest_first(self):
        ds = encode_dataset([["a"], ["a"], ["b"], ["a"]])
        sup = encode_supplementary([["x"], ["x"], ["x"], ["x"]], names=["g"])
        spec = ClusterSpec(counts=((2,),))
        asg = HierarchicalAssignment(
            sup=sup, spec=spec, clusters=np.array([[1], [1], [0], [1]])
        )
        model = contingency(asg, stacked_indicators(ds, 1), order="size")
        # cluster 1 has three members: it is ranked 1 and listed first
        assert model.row_labels == ("x1", "x2")
        assert model.row_index == ((0, 0, 1), (0, 0, 0))


class TestStandardizedResiduals:
    def test_independent_table_zero(self):
        r = np.array([0.3, 0.7])
        c = np.array([0.4, 0.6])
        model = BiplotModel(
            table=np.outer(r, c),
            row_masses=r,
            col_masses=c,
            row_labels=("r1", "r2"),
            col_labels=("c1", "c2"),
            row_index=((0, 0, 0), (0, 1, 0)),
        )
        out = standardized_residuals(model)
        assert_allclose(out.residuals, np.zeros((2, 2)), atol=1e-14)

    def test_hand_computed_two_by_two(self):
        # (p - r c) / sqrt(r c) with p = 0.4 and r = c = 0.5:
        # (0.4 - 0.25) / sqrt(0.25) = 0.3
        table = np.array([[0.4, 0.1], [0.1, 0.4]])
        model = BiplotModel(
            table=table,
            row_masses=table.sum(axis=1),
            col_masses=table.sum(axis=0),
            row_labels=("r1", "r2"),
            col_labels=("c1", "c2"),
            row_index=((0, 0, 0), (0, 0, 1)),
        )
        out = standardized_residuals(model)
        assert_allclose(out.residuals, [[0.3, -0.3], [-0.3, 0.3]], atol=1e-12)

    def test_row_swap_swaps_residuals(self):
        table = np.array([[0.4, 0.1], [0.2, 0.3]])
        def build(t):
            return standardized_residuals(
                BiplotModel(
                    table=t,
                    row_masses=t.sum(axis=1),
                    col_masses=t.sum(axis=0),
                    row_labels=("a", "b"),
                    col_labels=("c", "d"),
                    row_index=((0, 0, 0), (0, 0, 1)),
                )
            )
        assert_allclose(build(table).residuals, build(table[::-1]).residuals[::-1])

    def test_grand_total_property(self, rng):
        ds, sup, spec = random_problem(rng)
        asg = init_random(sup, spec, rng)
        model = standardized_residuals(contingency(asg, stacked_indicators(ds, sup.n_sup)))
        back = (
            np.sqrt(model.row_masses)[:, None]
            * model.residuals
            * np.sqrt(model.col_masses)[None, :]
        )
        assert np.abs(back.sum(axis=0)).max() < 1e-12
        assert np.abs(back.sum(axis=1)).max() < 1e-12

    def test_zero_mass_rejected(self):
        model = BiplotModel(
            table=np.array([[0.5, 0.5], [0.0, 0.0]]),
            row_masses=np.array([1.0, 0.0]),
            col_masses=np.array([0.5, 0.5]),
            row_labels=("a", "b"),
            col_labels=("c", "d"),
            row_index=((0, 0, 0), (0, 0, 1)),
        )
        with pytest.raises(MassError):
            standardized_residuals(model)


class TestBiplotCoordinates:
    def _fitted(self, rng, p=2):
        ds, sup, spec = random_problem(rng, n=40)
        sol = fit_mscca(ds, sup, spec, SolverOptions(p=p, n_starts=3, seed=1))
        view = stacked_indicators(ds, sup.n_sup)
        model = standardized_residuals(contingency(sol.assignment, view))
        return sol, biplot_coordinates(model, sol.centers, sol.quantifications)

    def test_rank_p_optimality(self, rng):
        _sol, model = self._fitted(rng)
        approx = model.row_coords @ model.col_coords.T
        achieved = ((model.residuals - approx) ** 2).sum()
        svals = np.linalg.svd(model.residuals, compute_uv=False)
        assert achieved <= (svals[2:] ** 2).sum() + 1e-6

    def test_full_rank_exact(self, rng):
        ds, sup, _ = random_problem(rng, n=50, m=2, q=3, n_sup=1, r=2)
        spec = ClusterSpec.uniform(sup, 2)
        # p at the rank bound recovers the residual table exactly
        p = ds.total_categories - ds.n_vars
        sol = fit_mscca(ds, sup, spec, SolverOptions(p=p, n_starts=3, seed=5))
        view = stacked_indicators(ds, sup.n_sup)
        model = biplot_coordinates(
            standardized_residuals(contingency(sol.assignment, view)),
            sol.centers,
            sol.quantifications,
        )
        assert_allclose(model.row_coords @ model.col_coords.T, model.residuals, atol=1e-8)

    def test_shape_mismatch(self, rng):
        sol, model = self._fitted(rng)
        with pytest.raises(ShapeError):
            biplot_coordinates(model, sol.centers[:-1], sol.quantifications)

    def test_display_and_natural_order_agree(self, rng):
        ds, sup, spec = random_problem(rng, n=40)
        sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=3, seed=1))
        view = stacked_indicators(ds, sup.n_sup)
        display = biplot_coordinates(
            standardized_residuals(contingency(sol.assignment, view, order="size")),
            sol.centers,
            sol.quantifications,
        )
        natural = biplot_coordinates(
            standardized_residuals(contingency(sol.assignment, view, order="natural")),
            sol.centers,
            sol.quantifications,
        )
        lookup = {t: i for i, t in enumerate(natural.row_index)}
        for i, t in enumerate(display.row_index):
            assert_allclose(display.row_coords[i], natural.row_coords[lookup[t]])


class TestRescaleSpread:
    def _model_with_coords(self, rows, cols):
        k, q = rows.shape[0], cols.shape[0]
        return BiplotModel(
            table=np.full((k, q), 1.0 / (k * q)),
            row_masses=np.full(k, 1.0 / k),
            col_masses=np.full(q, 1.0 / q),
            row_labels=tuple(f"r{i}" for i in range(k)),
            col_labels=tuple(f"c{j}" for j in range(q)),
            row_index=tuple((0, 0, i) for i in range(k)),
            residuals=np.zeros((k, q)),
            row_coords=rows,
            col_coords=cols,
        )

    def test_equal_spread_gamma_one(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
        model = rescale_spread(self._model_with_coords(rows, rows.copy()))
        assert model.gamma == pytest.approx(1.0, abs=1e-12)

    def test_double_spread_quarter_root(self):
        # rows at twice the norm of columns: gamma = (1/4)^(1/4)
        rows = np.array([[2.0, 0.0], [0.0, 2.0]])
        cols = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = rescale_spread(self._model_with_coords(rows, cols))
        assert model.gamma == pytest.approx(0.25**0.25, abs=1e-12)
        row_ms = (model.row_coords**2).sum(axis=1).mean()
        col_ms = (model.col_coords**2).sum(axis=1).mean()
        assert row_ms == pytest.approx(col_ms, abs=1e-10)

    def test_inner_products_preserved(self, rng):
        rows = rng.normal(size=(3, 2))
        cols = rng.normal(size=(4, 2))
        before = rows @ cols.T
        model = rescale_spread(self._model_with_coords(rows, cols))
        assert_allclose(model.row_coords @ model.col_coords.T, before, atol=1e-12)

    def test_degenerate_side(self):
        rows = np.zeros((2, 2))
        cols = np.eye(2)
        with pytest.raises(DegenerateGeometryError):
            rescale_spread(self._model_with_coords(rows, cols))


class TestResidualComparison:
    def test_single_cluster_tables_identical(self, rng):
        ds, sup, _ = random_problem(rng)
        spec = ClusterSpec.uniform(sup, 1)
        asg = HierarchicalAssignment(
            sup=sup, spec=spec, clusters=np.zeros((sup.n_obs, sup.n_sup), dtype=np.int64)
        )
        comp = residual_comparison(ds, sup, asg)
        assert_allclose(comp.averaging.residuals, comp.clustered.residuals, atol=1e-12)

    def test_splitting_concentrates_deviations(self):
        ds, sup, truth = generate_illustration()
        comp = residual_comparison(ds, sup, truth)
        assert np.abs(comp.clustered.residuals).max() >= np.abs(comp.averaging.residuals).max()

    def test_class_mass_additivity(self, rng):
        ds, sup, spec = random_problem(rng)
        asg = init_random(sup, spec, rng)
        comp = residual_comparison(ds, sup, asg)
        for i, (h, s, _k) in enumerate(comp.averaging.row_index):
            cluster_mass = sum(
                comp.clustered.row_masses[j]
                for j, (h2, s2, _k2) in enumerate(comp.clustered.row_index)
                if (h2, s2) == (h, s)
            )
            assert comp.averaging.row_masses[i] == pytest.approx(cluster_mass, abs=1e-12)

    def test_records_cover_both_methods(self, rng):
        ds, sup, spec = random_problem(rng)
        asg = init_random(sup, spec, rng)
        comp = residual_comparison(ds, sup, asg)
        methods = {rec["method"] for rec in comp.records}
        assert methods == {"averaging", "mscca"}
        expected = (len(comp.averaging.row_labels) + len(comp.clustered.row_labels)) * len(
            comp.averaging.col_labels
        )
        assert len(comp.records) == expected


class TestIllustrationBiplot:
    def test_alcohol_cluster_has_largest_alcohol_inner_product(self):
        ds, sup, truth = generate_illustration()
        sol = fit_mscca(ds, sup, truth.spec, SolverOptions(n_starts=50, seed=0))
        view = stacked_indicators(ds, sup.n_sup)
        model = rescale_spread(
            biplot_coordinates(
                standardized_residuals(contingency(sol.assignment, view)),
                sol.centers,
                sol.quantifications,
            )
        )
        cols = list(model.col_labels)
        alcohol = cols.index("Drink:Alcohol")
        inner = model.row_coords @ model.col_coords.T
        male_rows = [i for i, (h, s, _k) in enumerate(model.row_index) if (h, s) == (1, 0)]
        drink = ds.codes[:, 1]
        members = sup.members(1, 0)
        best_row = max(male_rows, key=lambda i: inner[i, alcohol])
        h, s, k = model.row_index[best_row]
        chosen = members[sol.assignment.clusters[members, 1] == k]
        modal = np.bincount(drink[chosen], minlength=3).argmax()
        assert ds.labels[1][modal] == "Alcohol"
