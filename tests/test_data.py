import numpy as np
import pytest
from numpy.testing import assert_allclose

from mscca import (
    CategoricalDataset,
    ClusterSpec,
    HierarchicalAssignment,
    SupplementaryData,
    build_assignment,
    cluster_counts,
    encode_dataset,
    encode_supplementary,
    read_csv_dataset,
    stacked_indicators,
    validate_assignment,
)
from mscca.errors import (
    AssignmentError,
    EmptyClusterError,
    MissingValueError,
    ShapeError,
    SpecError,
)
from conftest import (
    random_assignment,
    random_problem,
    stacked_indicator,
    z_full,
    z_full_stacked,
    z_var,
    z_var_stacked,
)


class TestEncodeDataset:
    def test_first_appearance_coding(self):
        ds = encode_dataset([["a", "x"], ["b", "x"], ["a", "y"]])
        assert ds.codes.tolist() == [[0, 0], [1, 0], [0, 1]]
        assert ds.q == (2, 2)
        assert ds.labels == (("a", "b"), ("x", "y"))

    def test_constant_column_accepted(self):
        ds = encode_dataset([["same"], ["same"], ["same"]])
        assert ds.q == (1,)

    def test_empty_cell_rejected(self):
        with pytest.raises(MissingValueError):
            encode_dataset([["a", "x"], ["b", ""]])
        with pytest.raises(MissingValueError):
            encode_dataset([["a"], [None]])

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            encode_dataset([["a", "x"], ["b"]])

    def test_round_trip(self, rng):
        for _ in range(10):
            n, m = int(rng.integers(2, 15)), int(rng.integers(1, 5))
            raw = [
                [f"lab{int(rng.integers(0, 4))}" for _ in range(m)] for _ in range(n)
            ]
            ds = encode_dataset(raw)
            assert ds.decode() == raw

    def test_from_codes_drops_unused(self):
        with pytest.warns(UserWarning, match="dropping unused"):
            ds = CategoricalDataset.from_codes(
                np.array([[0], [2]]), (("a", "b", "c"),)
            )
        assert ds.q == (2,)
        assert ds.labels == (("a", "c"),)
        assert ds.codes.tolist() == [[0], [1]]

    def test_subset_compacts(self):
        ds = encode_dataset([["a"], ["b"], ["a"], ["c"]])
        sub = ds.subset([0, 2, 3])
        assert sub.labels == (("a", "c"),)
        assert sub.decode() == [["a"], ["a"], ["c"]]

    def test_codes_immutable(self):
        ds = encode_dataset([["a"], ["b"]])
        with pytest.raises(ValueError):
            ds.codes[0, 0] = 1


# The five-observation gender layout used throughout: males 1, 3, 5 with two
# clusters, females 2, 4 with one; observations 1 and 3 share male cluster 1.
def _gender_example():
    sup = encode_supplementary([["M"], ["F"], ["M"], ["F"], ["M"]], names=["gender"])
    spec = ClusterSpec(counts=((2, 1),))
    male_cluster = {0: 0, 2: 0, 4: 1}
    return sup, spec, build_assignment(sup, spec, lambda h, i: male_cluster.get(i, 0))


class TestBuildAssignment:
    def test_worked_example_matrix(self):
        _sup, _spec, asg = _gender_example()
        expected = [
            [1, 0, 0],
            [0, 0, 1],
            [1, 0, 0],
            [0, 0, 1],
            [0, 1, 0],
        ]
        assert asg.indicator(0).tolist() == expected

    def test_single_cluster_equals_class_indicator(self):
        sup = encode_supplementary([["M"], ["F"], ["M"]])
        spec = ClusterSpec.uniform(sup, 1)
        asg = build_assignment(sup, spec, lambda h, i: 0)
        expected = np.zeros((3, 2))
        expected[np.arange(3), sup.codes[:, 0]] = 1.0
        assert_allclose(asg.indicator(0), expected)

    def test_out_of_range_cluster(self):
        sup = encode_supplementary([["M"], ["F"], ["M"]])
        spec = ClusterSpec(counts=((2, 1),))
        with pytest.raises(AssignmentError):
            build_assignment(sup, spec, lambda h, i: spec.k_of(h, int(sup.codes[i, h])))

    def test_stacked_block_diagonal(self, rng):
        ds, sup, spec = random_problem(rng)
        from conftest import random_assignment

        asg = random_assignment(rng, sup, spec)
        u = stacked_indicator(asg)
        n = sup.n_obs
        col = 0
        for h in range(sup.n_sup):
            k_h = spec.k_per_variable[h]
            block = u[h * n : (h + 1) * n, col : col + k_h]
            assert_allclose(block, asg.indicator(h))
            # everything outside the block is zero
            rest = np.delete(u[h * n : (h + 1) * n], np.arange(col, col + k_h), axis=1)
            assert not rest.any()
            col += k_h

    def test_rows_are_stacked_indicator_columns(self, rng):
        for _ in range(10):
            ds, sup, spec = random_problem(rng, n_sup=3, k_max=4)
            asg = random_assignment(rng, sup, spec)
            u = stacked_indicator(asg)
            n = sup.n_obs
            for h in range(sup.n_sup):
                assert asg.rows[:, h].tolist() == u[h * n : (h + 1) * n].argmax(axis=1).tolist()

    def test_gram_is_diagonal_cluster_sizes(self, rng):
        from conftest import random_assignment

        ds, sup, spec = random_problem(rng)
        asg = random_assignment(rng, sup, spec)
        u = stacked_indicator(asg)
        gram = u.T @ u
        sizes = np.concatenate([asg.cluster_sizes(h) for h in range(sup.n_sup)])
        assert_allclose(gram, np.diag(sizes))


class TestClusterCounts:
    def test_matches_dense_indicator_products(self, rng):
        # U'Z^H and diag(U'U) from the dense stacked indicators
        for _ in range(10):
            ds, sup, spec = random_problem(rng)
            asg = random_assignment(rng, sup, spec)
            view = stacked_indicators(ds, sup.n_sup)
            u = stacked_indicator(asg)
            table, sizes = cluster_counts(asg, view)
            assert_allclose(table, u.T @ z_full_stacked(view))
            assert_allclose(sizes, u.sum(axis=0))

    def test_empty_cluster_rejected(self):
        sup = encode_supplementary([["x"], ["x"], ["y"]])
        ds = encode_dataset([["a"], ["b"], ["a"]])
        asg = HierarchicalAssignment(
            sup=sup, spec=ClusterSpec(counts=((2, 1),)), clusters=np.zeros((3, 1), dtype=np.int64)
        )
        with pytest.raises(EmptyClusterError):
            cluster_counts(asg, stacked_indicators(ds, 1))


class TestValidateAssignment:
    def test_worked_example_clean(self):
        sup, spec, asg = _gender_example()
        assert validate_assignment(asg, sup) == []

    def test_wrong_class_detected(self):
        sup, spec, asg = _gender_example()
        u = asg.indicator(0)
        u[1] = [1, 0, 0]  # a female indicating a male cluster
        violations = validate_assignment([u], sup, spec)
        assert len(violations) == 1
        assert violations[0][:2] == (0, 1)

    def test_zero_row_detected(self):
        sup, spec, asg = _gender_example()
        u = asg.indicator(0)
        u[3] = [0, 0, 0]
        violations = validate_assignment([u], sup, spec)
        assert len(violations) == 1
        assert violations[0][:2] == (0, 3)

    def test_random_assignments_always_valid(self, rng):
        from conftest import random_assignment

        for _ in range(5):
            ds, sup, spec = random_problem(rng)
            asg = random_assignment(rng, sup, spec)
            assert validate_assignment(asg, sup) == []


class TestClusterSpec:
    def test_totals(self):
        spec = ClusterSpec(counts=((2, 1), (3,)))
        assert spec.k_per_variable == (3, 3)
        assert spec.k_total == 6

    def test_oversized_cluster_count_fails_fast(self):
        sup = encode_supplementary([["M"], ["F"], ["M"]])
        with pytest.raises(SpecError):
            ClusterSpec(counts=((3, 1),)).validate(sup)

    def test_from_mapping_requires_full_coverage(self):
        sup = encode_supplementary([["M"], ["F"]], names=["g"])
        with pytest.raises(SpecError):
            ClusterSpec.from_mapping(sup, {("g", "M"): 1})
        with pytest.raises(SpecError):
            ClusterSpec.from_mapping(sup, {("g", "M"): 1, ("g", "F"): 1, ("g", "X"): 1})


class TestIndicatorView:
    def test_stacking_replicates(self):
        ds = encode_dataset([["a"], ["b"]])
        view = stacked_indicators(ds, 2)
        assert z_var_stacked(view, 0).tolist() == [[1, 0], [0, 1], [1, 0], [0, 1]]

    def test_d_masses_counts_times_h(self):
        ds = encode_dataset([["a"], ["b"]])
        assert stacked_indicators(ds, 2).d_masses.tolist() == [2, 2]

    def test_h_one_identity(self):
        ds = encode_dataset([["a", "x"], ["b", "y"]])
        view = stacked_indicators(ds, 1)
        assert_allclose(z_full_stacked(view), z_full(view))

    def test_row_sums_and_positive_masses(self, rng):
        ds, sup, spec = random_problem(rng)
        view = stacked_indicators(ds, 3)
        for j in range(ds.n_vars):
            assert_allclose(z_var(view, j).sum(axis=1), np.ones(ds.n_obs))
        assert (view.d_masses > 0).all()

    def test_invalid_stack(self):
        ds = encode_dataset([["a"], ["b"]])
        with pytest.raises(ShapeError):
            stacked_indicators(ds, 0)


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "meal,drink,gender\nwest,tea,M\neast,tea,F\nwest,juice,M\n",
            encoding="utf-8",
        )
        ds, sup = read_csv_dataset(path, ["gender"])
        assert ds.names == ("meal", "drink")
        assert sup.names == ("gender",)
        assert ds.n_obs == 3 and sup.r == (2,)

    def test_missing_sup_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ShapeError):
            read_csv_dataset(path, ["missing"])

    def test_empty_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,\n", encoding="utf-8")
        with pytest.raises(MissingValueError):
            read_csv_dataset(path, ["a"])

    def test_byte_order_mark_stripped(self, tmp_path):
        # spreadsheet exports often start with a BOM; the first header must
        # still match when it names a supplementary column
        path = tmp_path / "data.csv"
        path.write_text("Meal,drink\nwest,tea\neast,juice\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        ds, sup = read_csv_dataset(path, ["Meal"])
        assert sup.names == ("Meal",)
        assert sup.labels == (("west", "east"),)
        assert ds.names == ("drink",)
