import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mscca import (
    CategoricalDataset,
    ClusterSpec,
    HierarchicalAssignment,
    SolverOptions,
    SupplementaryData,
    cluster_counts,
    encode_dataset,
    encode_supplementary,
    fit_mscca,
    init_random,
    object_scores,
    objective_phi,
    read_csv_dataset,
)
import mscca.data
from mscca.cli import main
from mscca.data import _code_table, moved_counts, stacked_counts
from mscca.solver import _centered_burt, _table_objective
from mscca.simulation import GenSpec, SupGenSpec, generate_clustered, generate_supplementary
from mscca.errors import (
    AssignmentError,
    EmptyClusterError,
    MissingValueError,
    MsccaError,
    ShapeError,
    SpecError,
)
from conftest import (
    _direct_objective,
    cluster_sizes,
    code_table_by_sort,
    dense_objective,
    encode_columns_by_cell,
    indicator,
    random_assignment,
    random_dataset,
    random_mixed_problem,
    random_problem,
    random_sup,
    read_csv_by_reader,
    stacked_indicator,
    traced_peak,
    validate_assignment,
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

    def test_non_string_cells_coded_by_str(self):
        # 1, 1.0 and True are equal as dict keys but not as text
        ds = encode_dataset([[1, "1"], [1.0, 2], [True, "2"], [1, "x"]])
        assert ds.labels == (("1", "1.0", "True"), ("1", "2", "x"))
        assert ds.codes.tolist() == [[0, 0], [1, 1], [2, 1], [0, 2]]

    @given(
        st.integers(1, 4).flatmap(
            lambda width: st.lists(
                st.lists(
                    st.one_of(
                        st.sampled_from(["a", "b", "1", "1.0", "é", "a,b"]),
                        st.integers(-3, 3),
                        st.floats(allow_nan=False, width=16),
                        st.booleans(),
                    ),
                    min_size=width,
                    max_size=width,
                ),
                min_size=1,
                max_size=30,
            )
        )
    )
    def test_matches_per_cell_oracle(self, raw):
        codes, labels, names = encode_columns_by_cell(raw, None, "v")
        ds = encode_dataset(raw)
        assert ds.codes.tolist() == codes.tolist()
        assert ds.labels == labels and ds.names == names
        sup = encode_supplementary(raw)
        assert sup.codes.tolist() == codes.tolist() and sup.labels == labels


@st.composite
def label_tables(draw):
    """A table of cells with its optional header: per column, labels from a
    small pool shared by every column, a mixed pool with cells that are not
    strings, or one label per row (the same texts in every such column);
    sometimes with empty cells or a ragged row."""
    width = draw(st.integers(1, 5))
    n_rows = draw(st.integers(1, 60))
    shared = st.sampled_from(["a", "b", "c", "1", "1.0", "é", "a,b"])
    pools = {
        "shared": shared,
        "mixed": st.one_of(
            shared, st.integers(-3, 3), st.floats(allow_nan=False, width=16), st.booleans()
        ),
        "many": st.integers(0, 10**6).map(str),
    }
    kinds = draw(st.lists(st.sampled_from([*pools, "unique"]), min_size=width, max_size=width))
    raw = [
        [f"u{i}" if kind == "unique" else draw(pools[kind]) for kind in kinds]
        for i in range(n_rows)
    ]
    for _ in range(draw(st.integers(0, 3)) // 2):
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, width - 1))
        raw[i][j] = draw(st.sampled_from([None, ""]))
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, n_rows - 1))
        raw[i] = raw[i][:-1] if draw(st.booleans()) else [*raw[i], "extra"]
    header = [f"h{j}" for j in range(width)] if draw(st.booleans()) else None
    return raw, header


class TestCodeTable:
    """``_code_table`` against the sort-based oracle ``code_table_by_sort``."""

    @staticmethod
    def assert_matches_oracle(raw, header):
        try:
            codes, labels = code_table_by_sort(raw, header=header)
        except MsccaError as exc:
            with pytest.raises(type(exc)) as err:
                _code_table(raw, header=header)
            assert str(err.value) == str(exc)
        else:
            got_codes, got_labels = _code_table(raw, header=header)
            assert got_codes.dtype == np.int64
            assert got_codes.tolist() == codes.tolist() and got_labels == labels

    @given(label_tables())
    def test_matches_sort_based_oracle(self, table):
        self.assert_matches_oracle(*table)

    def test_high_cardinality_table_matches_oracle(self, rng):
        # 3000 rows: a 2000-level column, a column of distinct labels that
        # reuse the other columns' texts, and two small shared columns
        n = 3000
        raw = [
            [f"x{rng.integers(2000)}", f"x{i}", f"x{rng.integers(3)}", f"x{rng.integers(5)}"]
            for i in range(n)
        ]
        self.assert_matches_oracle(raw, None)
        self.assert_matches_oracle(raw, ["a", "b", "c", "d"])

    @pytest.mark.parametrize(
        "raw",
        [
            [["a", "b"], ["a", ""]],
            [["a", None], [1, "b"]],
            [["a", "b"], ["c"]],
            [["a"], ["b", "c"]],
            [],
            [[]],
        ],
        ids=["empty-text", "none-with-non-strings", "short-row", "long-row", "no-rows", "no-columns"],
    )
    def test_errors_match_oracle(self, raw):
        self.assert_matches_oracle(raw, None)


# The five-observation gender layout used throughout: males 1, 3, 5 with two
# clusters, females 2, 4 with one; observations 1 and 3 share male cluster 1.
def _gender_example():
    sup = encode_supplementary([["M"], ["F"], ["M"], ["F"], ["M"]], names=["gender"])
    spec = ClusterSpec(counts=((2, 1),))
    clusters = np.array([[0], [0], [0], [0], [1]])
    return sup, spec, HierarchicalAssignment(sup=sup, spec=spec, clusters=clusters)


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
        assert indicator(asg, 0).tolist() == expected

    def test_single_cluster_equals_class_indicator(self):
        sup = encode_supplementary([["M"], ["F"], ["M"]])
        spec = ClusterSpec.uniform(sup, 1)
        asg = HierarchicalAssignment(sup=sup, spec=spec, clusters=np.zeros((3, 1), dtype=int))
        expected = np.zeros((3, 2))
        expected[np.arange(3), sup.codes[:, 0]] = 1.0
        assert_allclose(indicator(asg, 0), expected)

    def test_out_of_range_cluster(self):
        sup = encode_supplementary([["M"], ["F"], ["M"]])
        spec = ClusterSpec(counts=((2, 1),))
        # M (code 0) has clusters 0 and 1, F (code 1) only cluster 0
        for clusters, message in (
            ([[0], [1], [0]], "observation 1, variable 0: cluster 1 outside its class range"),
            ([[1], [0], [2]], "observation 2, variable 0: cluster 2 outside its class range"),
            ([[0], [0], [-1]], "observation 2, variable 0: cluster -1 outside its class range"),
        ):
            with pytest.raises(AssignmentError, match=re.escape(message)):
                HierarchicalAssignment(sup=sup, spec=spec, clusters=np.array(clusters))

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
            assert_allclose(block, indicator(asg, h))
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
        sizes = np.concatenate([cluster_sizes(asg, h) for h in range(sup.n_sup)])
        assert_allclose(gram, np.diag(sizes))


# Category counts and the groups they pack into at 64 joint codes and one
# observation per joint code (``packing``): one long group of binary
# variables; groups split mid-list, with a q = 40 between them that
# nothing joins; a q = 70 above the bound standing alone.
PACKING_QS = {
    "binary-run": ([2] * 9, [range(0, 6), range(6, 9)]),
    "split": ([2, 2, 2, 3, 5, 7, 40, 2, 2], [range(0, 4), range(4, 6), range(6, 7), range(7, 9)]),
    "above-bound": ([3, 70, 2, 2, 2], [range(0, 1), range(1, 2), range(2, 5)]),
    # two pairs of binary variables: W = Q, though two groups pack
    "width-q": ([2, 2, 40, 2, 2], [range(0, 2), range(2, 3), range(3, 5)]),
}


@pytest.fixture
def packing(monkeypatch):
    """Small datasets pack: 64 joint codes at most, one observation per
    joint code at least (the packed view is cached, so build the dataset
    inside the test)."""
    monkeypatch.setattr(mscca.data, "_PACK_CODES", 64)
    monkeypatch.setattr(mscca.data, "_PACK_OBS", 1)


def dense_tables(rows, spec, ds):
    """U'Z and the cluster sizes of S x N x H rows, from the dense
    indicators."""
    u = np.zeros((len(rows), ds.n_obs, spec.k_total), dtype=np.int64)
    for s in range(len(rows)):
        for h in range(rows.shape[2]):
            u[s, np.arange(ds.n_obs), rows[s, :, h]] = 1
    return u.transpose(0, 2, 1) @ z_full(ds).astype(np.int64), u.sum(axis=1)


class TestClusterCounts:
    def test_matches_dense_indicator_products(self, rng):
        # U'Z^H and diag(U'U) from the dense stacked indicators
        problems = [unequal_blocks_problem(rng)] + [random_problem(rng) for _ in range(10)]
        for ds, sup, spec in problems:
            asg = random_assignment(rng, sup, spec)
            u = stacked_indicator(asg)
            table, sizes = cluster_counts(asg, ds)
            assert_allclose(table, u.T @ z_full_stacked(ds, sup.n_sup))
            assert_allclose(sizes, u.sum(axis=0))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sup=st.integers(1, 3),
        n_stack=st.integers(1, 4),
        share=st.sampled_from([0.0, 0.02, 0.2, 0.45, 0.55, 0.8, 1.0]),
        empty=st.booleans(),
        block=st.sampled_from([1, 50, 1 << 16]),
        packs=st.sampled_from([None, *PACKING_QS]),
    )
    def test_moved_counts_match_a_recount(self, seed, n_sup, n_stack, share, empty, block, packs):
        # Tables updated in place from the moved entries equal a fresh
        # count and the dense indicators' U'Z, on both sides of the half
        # rule, also where a move empties a cluster, whether each bincount
        # takes one entry or start (block 1), a few (50 cells) or all of
        # them, and whether the variables pack (``packing``) or not.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 80) if packs is None else rng.integers(70, 100))
        ds, sup, spec = random_mixed_problem(rng, n=n, n_sup=n_sup)
        if packs is not None:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(mscca.data, "_PACK_CODES", 64)
                patch.setattr(mscca.data, "_PACK_OBS", 1)
                ds, _, _ = unequal_blocks_problem(rng, n, PACKING_QS[packs][0])
                assert len(ds.packed.rows) < ds.n_vars  # the view is cached packed
        first = np.stack([spec.first_rows[h][sup.codes[:, h]] for h in range(n_sup)], axis=1)
        limit = np.stack([np.array(spec.counts[h])[sup.codes[:, h]] for h in range(n_sup)], axis=1)
        rows = first + (rng.random((n_stack, *first.shape)) * limit).astype(np.int64)
        # a moved entry goes to another cluster of its class, if it has one
        step = 1 + (rng.random(rows.shape) * (limit - 1)).astype(np.int64)
        moves = rng.random(rows.shape) < share
        new_rows = np.where(moves, first + (rows - first + step) % limit, rows)
        if empty:
            # every member of one start's cluster leaves it for the next
            # cluster of its class, if it has one
            s, i, h = (int(rng.integers(n)) for n in rows.shape)
            row = new_rows[s, i, h]
            new_rows[s, :, h][new_rows[s, :, h] == row] = (
                first[i, h] + (row - first[i, h] + 1) % limit[i, h]
            )
        old_table, _ = stacked_counts(rows, spec, ds)
        want_table, want_sizes = stacked_counts(new_rows, spec, ds)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mscca.data, "_CELL_BLOCK", block)
            table, _ = stacked_counts(rows, spec, ds)
            assert np.array_equal(table, old_table)
            got_sizes = moved_counts(table, rows, new_rows, spec, ds)
        assert table.dtype == want_table.dtype
        assert np.array_equal(table, want_table)
        assert np.array_equal(got_sizes, want_sizes)
        dense_table, dense_sizes = dense_tables(new_rows, spec, ds)
        assert np.array_equal(table, dense_table) and np.array_equal(got_sizes, dense_sizes)

    def test_moved_counts_recount_only_when_half_moved(self, rng, monkeypatch):
        # 40 observations, 2 variables of one class with 2 clusters each:
        # 80 entries, so 39 moves take the update and 40 a recount.
        ds = random_dataset(rng, 40, 4, 3)
        sup = SupplementaryData(
            codes=np.zeros((40, 2), dtype=np.int64), labels=(("all",), ("all",)), names=("a", "b")
        )
        spec = ClusterSpec(((2,), (2,)))
        rows = np.tile([0, 2], (1, 40, 1))
        table, _ = stacked_counts(rows, spec, ds)
        count_into = mscca.data._count_into
        recounts = []

        def recording(*args):
            recounts.append(args)
            return count_into(*args)

        for moved, calls in ((39, 0), (40, 1), (80, 1)):
            new_rows = rows.copy()
            new_rows.reshape(-1)[:moved] += 1
            want_table, want_sizes = stacked_counts(new_rows, spec, ds)
            got_table = table.copy()
            recounts.clear()
            with monkeypatch.context() as patch:
                patch.setattr(mscca.data, "_count_into", recording)
                got_sizes = moved_counts(got_table, rows, new_rows, spec, ds)
            assert len(recounts) == calls
            assert np.array_equal(got_table, want_table)
            assert np.array_equal(got_sizes, want_sizes)

    def test_empty_cluster_rejected(self):
        sup = encode_supplementary([["x"], ["x"], ["y"]])
        ds = encode_dataset([["a"], ["b"], ["a"]])
        asg = HierarchicalAssignment(
            sup=sup, spec=ClusterSpec(counts=((2, 1),)), clusters=np.zeros((3, 1), dtype=np.int64)
        )
        with pytest.raises(EmptyClusterError):
            cluster_counts(asg, ds)


class TestPackedCounts:
    """Counting on packed variables (``CategoricalDataset.packed``) gives
    the tables of the dense indicators, integer for integer."""

    @pytest.mark.parametrize("name", list(PACKING_QS))
    def test_runs_and_joint_codes(self, rng, packing, name):
        q, groups = PACKING_QS[name]
        ds, _, _ = unequal_blocks_problem(rng, 80, q)
        packed = ds.packed
        assert list(packed.groups) == groups
        assert packed.sizes == tuple(int(np.prod([q[j] for j in g])) for g in groups)
        assert packed.offsets.tolist() == np.cumsum([0, *packed.sizes[:-1]]).tolist()
        assert packed.width == sum(packed.sizes)
        for group, size, matrix in zip(groups, packed.sizes, packed.marginals):
            if len(group) == 1:
                assert matrix is None
                continue
            # row w: a 1 in the column of each variable's digit of w
            digits = np.array(np.unravel_index(np.arange(size), [q[j] for j in group]))
            want = np.zeros((size, sum(q[j] for j in group)))
            for i, j in enumerate(group):
                lo = sum(q[k] for k in group[:i])
                want[np.arange(size), lo + digits[i]] = 1.0
            assert np.array_equal(matrix, want) and not matrix.flags.writeable
        assert packed.rows.shape == (len(groups), 80) and not packed.rows.flags.writeable
        assert not np.shares_memory(packed.rows, ds.codes)
        for i in range(0, 80, 7):
            for row, group in zip(packed.rows, groups):
                code = 0
                for j in group:
                    code = code * q[j] + int(ds.codes[i, j])
                assert row[i] == code

    def test_unpacked_view_is_the_code_rows(self, rng):
        # default bound: min(128 joint codes, N / 64); perfbench paper and
        # wide, acceptance criteria 6 and 10 pack nothing, tall and cli
        # pack 20 five-category variables into 7 runs
        for gen, n_sup in (
            (GenSpec(q=7, k=3, n_obs=300, n_vars=10, seed=10), 3),
            (GenSpec(q=5, k=3, n_obs=300, n_vars=10, seed=606), 1),
            (GenSpec(q=40, k=3, n_obs=2000, n_vars=20, seed=1), 3),
        ):
            ds, _ = generate_clustered(gen)
            assert len(ds.packed.rows) == ds.n_vars
            assert np.shares_memory(ds.packed.rows, ds.codes)
            assert ds.packed.offsets.tolist() == ds.offsets.tolist()
        for n in (20_000, 50_000):
            ds, _ = generate_clustered(GenSpec(q=5, k=3, n_obs=n, n_vars=20, seed=1))
            assert [len(g) for g in ds.packed.groups] == [3] * 6 + [2]
        ds, _, _ = unequal_blocks_problem(rng, 63, [2] * 5)
        assert len(ds.packed.rows) == 5  # fewer than 64 observations per joint code

    @pytest.mark.parametrize("name", list(PACKING_QS))
    @pytest.mark.parametrize("block", [1, 50, 1 << 16])
    def test_stacked_counts_match_dense_products(self, rng, packing, name, block, monkeypatch):
        monkeypatch.setattr(mscca.data, "_CELL_BLOCK", block)
        ds, sup, spec = unequal_blocks_problem(rng, 80, PACKING_QS[name][0])
        rows = np.stack([random_assignment(rng, sup, spec).rows for _ in range(3)])
        table, sizes = stacked_counts(rows, spec, ds)
        want_table, want_sizes = dense_tables(rows, spec, ds)
        assert table.dtype == np.int64 and sizes.dtype == np.int64
        assert np.array_equal(table, want_table) and np.array_equal(sizes, want_sizes)

    @pytest.mark.parametrize("name", list(PACKING_QS))
    @pytest.mark.parametrize("block", [1, 50, 1 << 16])
    def test_moved_counts_take_both_routes(self, rng, packing, name, block, monkeypatch):
        # 400 rows in one class of two clusters.  45% of the entries moved,
        # or the 30% in cluster 1 all moved to cluster 0 (emptying it),
        # save more cells than twice the joint tables hold, and take the
        # joint cells; 2% moved take the variables' own cells.
        monkeypatch.setattr(mscca.data, "_CELL_BLOCK", block)
        ds, _, _ = unequal_blocks_problem(rng, 400, PACKING_QS[name][0])
        sup = SupplementaryData(
            codes=np.zeros((400, 1), dtype=np.int64), labels=(("all",),), names=("s",)
        )
        spec = ClusterSpec(((2,),))
        unpacked, calls = mscca.data._unpacked, []

        def recording(*args):
            calls.append(args)
            return unpacked(*args)

        monkeypatch.setattr(mscca.data, "_unpacked", recording)
        rows = (rng.random((1, 400, 1)) < 0.3).astype(np.int64)
        cases = [
            (rng.random(rows.shape) < 0.45, True),
            (rng.random(rows.shape) < 0.02, False),
            (rows == 1, True),  # every member of cluster 1 leaves it
        ]
        for moves, joint in cases:
            new_rows = np.where(moves, 1 - rows, rows)
            table, _ = stacked_counts(rows, spec, ds)
            calls.clear()
            sizes = moved_counts(table, rows, new_rows, spec, ds)
            assert bool(calls) == joint
            want_table, want_sizes = dense_tables(new_rows, spec, ds)
            assert np.array_equal(table, want_table) and np.array_equal(sizes, want_sizes)
        assert sizes.tolist() == [[400, 0]]  # the last update emptied cluster 1


class TestValidateAssignment:
    def test_worked_example_clean(self):
        sup, spec, asg = _gender_example()
        assert validate_assignment(asg, sup) == []

    def test_wrong_class_detected(self):
        sup, spec, asg = _gender_example()
        u = indicator(asg, 0)
        u[1] = [1, 0, 0]  # a female indicating a male cluster
        violations = validate_assignment([u], sup, spec)
        assert len(violations) == 1
        assert violations[0][:2] == (0, 1)

    def test_zero_row_detected(self):
        sup, spec, asg = _gender_example()
        u = indicator(asg, 0)
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
    """The dataset's description of the concatenated indicator Z: column
    offsets, category counts, column means and column labels."""

    def test_stacking_replicates(self):
        ds = encode_dataset([["a"], ["b"]])
        assert z_var_stacked(ds, 2, 0).tolist() == [[1, 0], [0, 1], [1, 0], [0, 1]]

    def test_d_masses_counts_times_h(self):
        # the stacked masses diag(Z^H' Z^H) are the category counts times H
        ds = encode_dataset([["a", "x"], ["b", "x"], ["a", "y"]])
        z = z_full_stacked(ds, 2)
        assert ds.counts.tolist() == [2, 1, 2, 1]
        assert_allclose((z * z).sum(axis=0), ds.counts * 2)

    def test_h_one_identity(self):
        ds = encode_dataset([["a", "x"], ["b", "y"]])
        assert_allclose(z_full_stacked(ds, 1), z_full(ds))

    def test_row_sums_and_positive_masses(self, rng):
        ds, sup, spec = random_problem(rng)
        for j in range(ds.n_vars):
            assert_allclose(z_var(ds, j).sum(axis=1), np.ones(ds.n_obs))
        assert (ds.counts > 0).all()

    def test_columns_match_dense_indicator(self, rng):
        for _ in range(5):
            ds, sup, spec = random_problem(rng)
            z = np.hstack([z_var(ds, j) for j in range(ds.n_vars)])
            assert ds.offsets.tolist() == [sum(ds.q[:j]) for j in range(ds.n_vars)]
            assert ds.counts.tolist() == z.sum(axis=0).tolist()
            assert_allclose(ds.column_means, z.mean(axis=0), rtol=0, atol=1e-15)

    def test_column_labels(self):
        ds = encode_dataset([["a", "x"], ["b", "x"]], names=["meal", "drink"])
        assert ds.column_labels == ("meal:a", "meal:b", "drink:x")

    def test_columns_cached_and_read_only(self):
        ds = encode_dataset([["a", "x"], ["b", "y"]])
        for name in ("offsets", "counts", "column_means"):
            assert getattr(ds, name) is getattr(ds, name)
            with pytest.raises(ValueError):
                getattr(ds, name)[0] = 0


def unequal_blocks_problem(rng, n=50, q=(2, 5, 3, 7)):
    """A dataset whose variables have unequal category counts, so a
    lookup into the wrong variable's block of Z's columns shows, with
    supplementary data and a feasible random cluster spec."""
    codes = np.stack([rng.permutation(np.arange(n) % k) for k in q], axis=1)
    ds = CategoricalDataset.from_codes(codes, [[f"c{c}" for c in range(k)] for k in q])
    _, sup, spec = random_problem(rng, n=n)
    return ds, sup, spec


class TestCellReadersMatchDenseIndicator:
    """The readers of the cells against the dense indicator Z, on unequal
    blocks (the Burt count is checked by ``TestCenteredBurt``)."""

    def test_object_scores(self, rng):
        ds, _, _ = unequal_blocks_problem(rng)
        centered = z_full(ds) - ds.column_means
        b = rng.normal(size=(3, ds.total_categories, 2))
        for got, bs in ((object_scores(ds, b[0]), b[0]), (object_scores(ds, b), b)):
            assert_allclose(got, centered @ bs / ds.n_vars, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("name", list(PACKING_QS))
    def test_object_scores_packed(self, rng, packing, name):
        # one gather per packed group, from its rows of B summed per joint
        # code, against the dense Z; each start of a stack has the lone
        # start's bytes
        ds, _, _ = unequal_blocks_problem(rng, 80, PACKING_QS[name][0])
        assert len(ds.packed.rows) < ds.n_vars
        centered = z_full(ds) - ds.column_means
        b = rng.normal(size=(3, ds.total_categories, 2))
        stacked = object_scores(ds, b)
        assert_allclose(stacked, centered @ b / ds.n_vars, rtol=1e-12, atol=1e-14)
        for s in range(3):
            assert object_scores(ds, b[s]).tobytes() == stacked[s].tobytes()

    def test_direct_objective(self, rng):
        ds, sup, spec = unequal_blocks_problem(rng)
        block = [slice(lo, lo + q) for lo, q in zip(ds.offsets, ds.q)]
        b = rng.normal(size=(3, ds.total_categories, 2))
        scores = [rng.normal(size=(3, ds.n_obs, 2)) for _ in range(sup.n_sup)]
        want = np.zeros(3)
        for j in range(ds.n_vars):
            fitted = z_var(ds, j) @ b[:, block[j]]
            want += sum(((g - fitted) ** 2).sum(axis=(1, 2)) for g in scores)
        want /= ds.n_obs * sup.n_sup * ds.n_vars
        assert_allclose(_direct_objective(scores, b, ds), want, rtol=1e-12)
        # one start, through objective_phi: || U G - Z_j^H B_j ||^2
        asg = random_assignment(rng, sup, spec)
        g = rng.normal(size=(spec.k_total, 2))
        ug = stacked_indicator(asg) @ g
        want = sum(
            ((ug - z_var_stacked(ds, sup.n_sup, j) @ b[0, block[j]]) ** 2).sum()
            for j in range(ds.n_vars)
        )
        want /= ds.n_obs * sup.n_sup * ds.n_vars
        assert objective_phi(asg, g, b[0], ds) == pytest.approx(want, rel=1e-12)

    @staticmethod
    def assert_table_objective(rng, ds, sup, spec, starts=4):
        # the residual sum grouped by the cells of the count table against
        # the dense residuals; a random assignment may leave a cluster empty
        for _ in range(starts):
            asg = random_assignment(rng, sup, spec)
            g = rng.normal(size=(spec.k_total, 2))
            b = rng.normal(size=(ds.total_categories, 2))
            table, _ = stacked_counts(asg.rows[None], spec, ds)
            got = _table_objective(table[0], g, b, ds, sup.n_sup)
            assert got == pytest.approx(dense_objective(asg, g, b, ds), rel=1e-12)
            assert objective_phi(asg, g, b, ds) == got

    def test_table_objective(self, rng):
        self.assert_table_objective(rng, *unequal_blocks_problem(rng))

    @pytest.mark.parametrize("name", list(PACKING_QS))
    def test_table_objective_packed(self, rng, packing, name):
        ds, sup, spec = unequal_blocks_problem(rng, 80, PACKING_QS[name][0])
        assert len(ds.packed.rows) < ds.n_vars
        self.assert_table_objective(rng, ds, sup, spec)

    @pytest.mark.parametrize("q", [1017, 1027])
    def test_table_objective_either_side_of_8192(self, rng, q):
        # K = 8 cluster rows and Q = q + 3 categories: K Q = 8160 and 8240
        ds, _, _ = unequal_blocks_problem(rng, 1100, (q, 3))
        sup = random_sup(rng, 1100, 2, 2)
        spec = ClusterSpec.uniform(sup, 2)
        assert (spec.k_total * ds.total_categories > 8192) == (q > 1020)
        self.assert_table_objective(rng, ds, sup, spec, starts=2)

    def test_moved_counts(self, rng):
        # stacked_counts is checked on this dataset by TestClusterCounts
        ds, sup, spec = unequal_blocks_problem(rng)
        old = [random_assignment(rng, sup, spec) for _ in range(3)]
        # about a fifth of the entries move, so the tables are updated, not recounted
        new = [
            a.with_clusters(np.where(rng.random(a.clusters.shape) < 0.2, b.clusters, a.clusters))
            for a, b in zip(old, (random_assignment(rng, sup, spec) for _ in old))
        ]
        rows, new_rows = (np.stack([a.rows for a in asg]) for asg in (old, new))
        assert 0 < 2 * np.count_nonzero(rows != new_rows) < rows.size
        table, _ = stacked_counts(rows, spec, ds)
        sizes = moved_counts(table, rows, new_rows, spec, ds)
        z = z_full_stacked(ds, sup.n_sup)
        for s, a in enumerate(new):
            u = stacked_indicator(a)
            assert np.array_equal(table[s], u.T @ z) and np.array_equal(sizes[s], u.sum(axis=0))


class TestSupplementaryData:
    def test_zero_variables_rejected(self):
        with pytest.raises(ShapeError, match="at least one variable"):
            SupplementaryData(codes=np.zeros((3, 0), dtype=np.int64), labels=(), names=())


class TestIdentityEquality:
    def test_equal_content_copies_are_distinct_keys(self, rng):
        ds, sup, spec = random_problem(rng)
        asg = random_assignment(rng, sup, spec)
        copies = [
            (ds, CategoricalDataset(codes=ds.codes.copy(), labels=ds.labels, names=ds.names)),
            (sup, SupplementaryData(codes=sup.codes.copy(), labels=sup.labels, names=sup.names)),
            (asg, HierarchicalAssignment(sup=sup, spec=spec, clusters=asg.clusters.copy())),
        ]
        for item, copy in copies:
            assert item == item
            assert item != copy
            table = {item: 1, copy: 2}
            assert table[item] == 1 and table[copy] == 2


# Cells that leave a CSV text plain, among them characters that
# str.splitlines would take for line ends and csv.reader does not, and
# labels whose UTF-8 bytes fill one 8-byte word, spill into a second or
# third one, or share their first 8 (or 16) bytes.
_PLAIN_CELLS = st.sampled_from(
    ["1", "01", "1.0", "-2", "1e3", "nan", "a b", " ", "\ufeff", "\x0b", "\x1c", "\x85", "\u2028"]
    + ["a label of 20 chars.", "abcdefgh", "abcdefghi", "abcdefgh1", "abcdefghij", "abcdefg"]
    + ["0123456789abcdef", "0123456789abcdefg", "0123456789abcdefh"]
    + ["é", "日本語", "1234567é", "1234567è", "ñandú", "€", "€€€", "🙂🙂"]
)
_ANY_CELLS = st.one_of(
    _PLAIN_CELLS,
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3),
    st.sampled_from(["a,b", 'say "hi"', '"', ",", "x\ny", "x\ry", "\r\n"]),
)


_RARELY = st.sampled_from([False] * 7 + [True])


def _record(row, terminator):
    out = io.StringIO()
    csv.writer(out, lineterminator=terminator).writerow(row)
    return out.getvalue()


@st.composite
def csv_files(draw, plain=False):
    """A CSV text with its supplementary columns, a field size limit and a
    block size (None: the defaults).  The text has plain or quoted cells,
    ragged rows, empty and NUL cells, a \\n or \\r\\n line end, blank lines
    (also a blank first line), a header and no rows, no final line end, a
    byte-order mark.  A ``plain`` text has plain cells and \\n line ends
    only, no faults, and a header on its first line."""
    width = draw(st.integers(2, 4))
    cells = _PLAIN_CELLS if plain or draw(st.booleans()) else _ANY_CELLS
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), min_size=1, max_size=25))
    faults = 0 if plain else draw(st.sampled_from([0, 0, 0, 1, 2]))
    kinds = st.sampled_from(["ragged", "empty", "nul"])
    for fault in draw(st.lists(kinds, min_size=faults, max_size=faults)):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
        if fault == "ragged":
            # one cell short, one over, or a trailing comma
            rows[i] = draw(st.sampled_from([rows[i][:-1], [*rows[i], "extra"], [*rows[i], ""]]))
        else:
            rows[i] = [*rows[i][:j], "" if fault == "empty" else "x\x00", *rows[i][j + 1 :]]
    header = [f"col{j}" for j in range(width)]
    terminator = "\n" if plain else draw(st.sampled_from(["\n", "\n", "\r\n"]))
    if draw(_RARELY):
        rows = []
    records = [_record(row, terminator) for row in [header, *rows]]
    for _ in range(draw(st.integers(0, 3))):
        records.insert(draw(st.integers(1, len(records))), terminator)
    if not plain and draw(_RARELY):
        records.insert(0, terminator)
    text = "".join(records)
    if draw(st.booleans()):
        text = text.removesuffix(terminator)
    if draw(st.booleans()):
        text = "\ufeff" + text
    sup_cols = draw(st.lists(st.sampled_from(header), min_size=1, max_size=width - 1, unique=True))
    limit = draw(st.sampled_from([None, None, None, 4, 12]))
    return text, sup_cols, limit, draw(st.sampled_from([None, 1, 3]))


def _read_outcome(read, path, sup_cols):
    """What a CSV reader gives: codes, labels and names, or an error's type
    and message."""
    try:
        ds, sup = read(path, sup_cols)
    except MsccaError as exc:
        return type(exc), str(exc)
    assert ds.codes.dtype == sup.codes.dtype == np.int64
    return [(data.codes.tolist(), data.labels, data.names) for data in (ds, sup)]


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

    def test_ragged_row_names_its_line(self, tmp_path):
        # a NUL byte, in a cell or in the header, names its line too; an
        # oversized field in a block after a ragged row is still the error
        # reported; a row short by a trailing empty cell is ragged even
        # where the next row would make up the count
        path = tmp_path / "data.csv"
        limit, block = csv.field_size_limit(), mscca.data._BLOCK_ROWS
        filler = "1,2,x\n" * block
        cases = [
            ("a,b,g\n1,2,x\n\n1,x\n", "line 4 has 2 cells, expected 3"),
            ("a,b,g\n1,\n2,x\n", "line 2 has 2 cells, expected 3"),
            ("a,b,g\n1,2,x\n\n1,x\x00,y\n", "line 4: NUL byte in column 'b'"),
            ("a,b\x00,g\n1,2,x\n", "line 1: NUL byte in header column 'b\\x00'"),
            (
                f"a,b,g\n1,x\n{filler}2,{'z' * (limit + 1)},y\n",
                f"line {3 + block}: field larger than field limit ({limit})",
            ),
        ]
        for text, message in cases:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ShapeError, match=re.escape(message)) as err:
                read_csv_dataset(path, ["g"])
            assert "\n" not in str(err.value)

    def test_duplicate_header_names(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,a\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ShapeError, match="duplicate column names"):
            read_csv_dataset(path, ["b"])

    def test_missing_value_names_column_and_line(self, tmp_path):
        # a blank line and a quoted two-line cell both shift the line count
        path = tmp_path / "data.csv"
        path.write_text('meal,drink,g\n\n"west\nside",tea,M\neast,,F\n', encoding="utf-8")
        with pytest.raises(MissingValueError) as err:
            read_csv_dataset(path, ["g"])
        message = str(err.value)
        assert "line 5" in message and "'drink'" in message
        assert "\n" not in message

    def test_header_only_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n", encoding="utf-8")
        with pytest.raises(ShapeError) as err:
            read_csv_dataset(path, ["a"])
        assert str(err.value) == f"{path}: no data rows after the header"
        argv = ["fit", "--input", str(path), "--sup-cols", "a", "--k", "a:x:1"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {path}: no data rows after the header\n"

    def test_plain_text_skips_the_csv_reader(self, tmp_path, monkeypatch):
        made = []
        reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda *a, **kw: made.append(1) or reader(*a, **kw))
        path = tmp_path / "data.csv"
        path.write_text("meal,drink,g\nwest,tea,M\n\neast,tea,F\n", encoding="utf-8")
        ds, sup = read_csv_dataset(path, ["g"])
        assert made == []
        assert ds.labels == (("west", "east"), ("tea",)) and sup.labels == (("M", "F"),)
        path.write_text('meal,drink,g\nwest,"tea",M\n\neast,tea,F\n', encoding="utf-8")
        ds, sup = read_csv_dataset(path, ["g"])
        assert made
        assert ds.labels == (("west", "east"), ("tea",)) and sup.labels == (("M", "F"),)

    @settings(max_examples=200)
    @given(csv_files())
    def test_matches_per_cell_oracle(self, tmp_path_factory, case):
        # Both ingest paths against the csv.reader oracle: a plain file (no
        # quote, CR or NUL, no line over the field size limit, no ragged
        # row or empty cell) is coded from its bytes, any other goes
        # through csv.reader.
        text, sup_cols, limit, block = case
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        previous, block_rows = csv.field_size_limit(), mscca.data._BLOCK_ROWS
        csv.field_size_limit(limit or previous)
        mscca.data._BLOCK_ROWS = block or block_rows
        try:
            expected = _read_outcome(read_csv_by_reader, path, sup_cols)
            got = _read_outcome(read_csv_dataset, path, sup_cols)
        finally:
            csv.field_size_limit(previous)
            mscca.data._BLOCK_ROWS = block_rows
        assert got == expected

    @given(csv_files(plain=True))
    def test_plain_files_are_coded_from_their_bytes(self, tmp_path_factory, case):
        text, sup_cols, _, block = case
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _read_outcome(read_csv_by_reader, path, sup_cols)
        made = []
        reader = csv.reader
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(csv, "reader", lambda *a, **kw: made.append(1) or reader(*a, **kw))
            patch.setattr(mscca.data, "_BLOCK_ROWS", block or mscca.data._BLOCK_ROWS)
            got = _read_outcome(read_csv_dataset, path, sup_cols)
        assert made == []
        assert got == expected


class TestColumnCoder:
    """The byte coder's per-column vocabularies against the ``csv.reader``
    oracle, with blocks of a few lines, so that labels, key widths and
    faults fall into later blocks."""

    @staticmethod
    def outcomes(tmp_path, text, sup_cols, block, plain):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        expected = _read_outcome(read_csv_by_reader, path, sup_cols)
        made = []
        reader = csv.reader
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(csv, "reader", lambda *a, **kw: made.append(1) or reader(*a, **kw))
            patch.setattr(mscca.data, "_BLOCK_ROWS", block)
            got = _read_outcome(read_csv_dataset, path, sup_cols)
        assert (made == []) == plain
        return got, expected

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_label_first_seen_in_a_later_block(self, tmp_path, block):
        text = "a,b,g\nx,u,M\nx,u,M\nx,u,M\ny,v,F\nx,w,M\n"
        got, expected = self.outcomes(tmp_path, text, ["g"], block, plain=True)
        assert got == expected
        assert got[0][0] == [[0, 0], [0, 0], [0, 0], [1, 1], [0, 2]]
        assert got[0][1] == (("x", "y"), ("u", "v", "w")) and got[1][1] == (("M", "F"),)

    @pytest.mark.parametrize("block", [1, 2, 4])
    def test_long_labels_sharing_their_first_words(self, tmp_path, block):
        # one column goes from one-word keys to its dict of labels at its
        # first cell over 8 bytes; the labels share their first 8 (or 16)
        # bytes
        cells = ["short", "abcdefgh-one", "abcdefgh-two", "short", "abcdefgh12345678-x"]
        cells += ["abcdefgh12345678-y", "abcdefgh-one", "abcdefgh", "abcdefgh12345678-x"]
        text = "a,g\n" + "".join(f"{cell},M\n" for cell in cells)
        got, expected = self.outcomes(tmp_path, text, ["g"], block, plain=True)
        assert got == expected
        assert got[0][1] == (tuple(dict.fromkeys(cells)),)
        assert [row[0] for row in got[0][0]] == [0, 1, 2, 0, 3, 4, 1, 5, 3]

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_first_appearance_order_is_not_sorted_order(self, tmp_path, block):
        text = "a,g\nzeta,M\nmid,F\nzeta,M\nalpha,F\nmid,M\nbeta,F\n"
        got, expected = self.outcomes(tmp_path, text, ["g"], block, plain=True)
        assert got == expected
        assert got[0][1] == (("zeta", "mid", "alpha", "beta"),)
        assert [row[0] for row in got[0][0]] == [0, 1, 0, 2, 1, 3]

    @pytest.mark.parametrize("block", [1, 2])
    def test_blank_line_that_starts_a_block(self, tmp_path, block):
        # with two lines a block, a blank line comes first after each block
        text = "a,g\nx,M\ny,F\n\nz,M\n\n\ny,F\n"
        got, expected = self.outcomes(tmp_path, text, ["g"], block, plain=True)
        assert got == expected
        assert got[0][0] == [[0], [1], [2], [1]]

    @pytest.mark.parametrize("block", [1, 2])
    def test_blank_lines_after_a_long_label(self, tmp_path, block):
        # the column is coded by its dict of labels from line 2 on, and
        # no block is left without a line to code
        text = "a,g\nabcdefgh-one,M\n\n\nx,F\n\nabcdefgh-one,F\n\n"
        got, expected = self.outcomes(tmp_path, text, ["g"], block, plain=True)
        assert got == expected
        assert got[0][0] == [[0], [1], [0]] and got[0][1] == (("abcdefgh-one", "x"),)

    @pytest.mark.parametrize("block", [1, 2])
    def test_first_empty_cell_in_row_major_order(self, tmp_path, block):
        # Column b's empty cell (line 3) comes before column a's (line 4)
        # in row-major order though a is coded first; the supplementary
        # column g, stored after the analysis columns, has the first one
        # in the second file.
        cases = [
            ("a,b,g\nx,y,M\nx,,M\n,y,F\n", "line 3: empty cell in column 'b'"),
            ("g,a,b\nM,x,y\n,x,y\nF,,y\n", "line 3: empty cell in column 'g'"),
        ]
        for text, message in cases:
            got, expected = self.outcomes(tmp_path, text, ["g"], block, plain=False)
            assert got == expected
            assert got[0] is MissingValueError and got[1].endswith(message)

    @pytest.mark.parametrize("sup_cols", [[], ["a"]])
    def test_one_column_file(self, tmp_path, sup_cols):
        # no comma at all; either container is left without a variable
        got, expected = self.outcomes(tmp_path, "a\nx\ny\n\nx\n", sup_cols, 2, plain=True)
        assert got == expected and got[0] is ShapeError

    def test_cell_of_tens_of_kilobytes(self, tmp_path):
        # One 30,000-byte cell among 2,000 lines of short cells.  The read
        # peaks at 1.07 MB (grouping a block's cells by their word count
        # peaked at 2.1 MB); keys padded to the longest cell of the column
        # would take 2,000 x 30,000 bytes for each array of them.
        lines = [f"x{i % 7},y{i % 5},{'MF'[i % 2]}" for i in range(2000)]
        lines[500] = "z" * 30_000 + ",y,M"
        got, expected = self.outcomes(tmp_path, "a,b,g\n" + "\n".join(lines), ["g"], 4096, True)
        assert got == expected and got[0][1][0][-1] == "z" * 30_000
        path = tmp_path / "data.csv"
        peak = traced_peak(lambda: read_csv_dataset(path, ["g"]))
        assert peak <= 1.5 * 2**20

    def test_first_nul_byte_in_row_major_order(self, tmp_path):
        text = "a,b,g\nx,y,M\nx,y\x00,M\nx\x00,y,F\n"
        got, expected = self.outcomes(tmp_path, text, ["g"], 1, plain=False)
        assert got == expected
        assert got[0] is ShapeError and got[1].endswith("line 3: NUL byte in column 'b'")


class TestOneCellLayout:
    """Each container stores its codes once, as m x N rows; ``codes`` is
    their transposed view."""

    @staticmethod
    def held_arrays(data):
        """Every array the container holds, also inside tuples (such as a
        cached ``PackedCodes``)."""
        held, todo = [], list(vars(data).values())
        while todo:
            value = todo.pop()
            if isinstance(value, np.ndarray):
                held.append(value)
            elif isinstance(value, tuple):
                todo.extend(value)
        return held

    @classmethod
    def assert_one_layout(cls, data):
        rows = data.codes.T  # the stored rows
        assert rows.flags.c_contiguous and not rows.flags.writeable and rows.dtype == np.int64
        assert data.codes.base is not None
        for j in range(data.codes.shape[1]):
            assert data.codes[:, j].flags.c_contiguous
        # no second N x m copy among the arrays the container holds
        held = cls.held_arrays(data)
        assert all(np.shares_memory(a, rows) for a in held if a.shape == data.codes.shape)

    def test_read_csv_dataset(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,g,b\nx,M,u\ny,F,u\nx,F,v\n", encoding="utf-8")
        ds, sup = read_csv_dataset(path, ["g"])
        ds.column_means, sup.members(0, 0)
        for data in (ds, sup):
            self.assert_one_layout(data)
        # both containers keep their rows of the table the file was coded into
        assert ds.codes.base is sup.codes.base
        assert ds.codes.tolist() == [[0, 0], [1, 0], [0, 1]]
        assert sup.codes.tolist() == [[0], [1], [1]]

    def read_every_cell(self, rng):
        """A dataset after every reader of its cells has run on it: the
        object scores, a count, a moved-row update, the Burt matrix and a
        fit.  Its arrays of N m cells or of N rows other than the code
        rows, and its marginal matrices, are returned with it."""
        ds, sup, spec = unequal_blocks_problem(rng, q=(2, 5, 3, 7, 2, 2))
        asg = init_random(sup, spec, rng)
        b = rng.normal(size=(ds.total_categories, 2))
        object_scores(ds, b)
        table, _ = stacked_counts(asg.rows[None], spec, ds)
        moved_counts(table, asg.rows[None], init_random(sup, spec, rng).rows[None], spec, ds)
        _centered_burt(ds, sup.n_sup)
        fit_mscca(ds, sup, spec, SolverOptions(n_starts=1))
        self.assert_one_layout(ds)
        rows, held = ds.codes.T, self.held_arrays(ds)
        assert any(np.shares_memory(a, ds.packed.rows) for a in held)  # the cached view
        marginals = [a for a in ds.packed.marginals if a is not None]
        others = [
            a
            for a in held
            if (a.size >= rows.size or ds.n_obs in a.shape)
            and not np.shares_memory(a, rows)
            and not any(a is matrix for matrix in marginals)
        ]
        return ds, others, marginals

    def test_cell_readers_keep_no_second_copy(self, rng):
        # the readers of the cells use the code rows and each variable's
        # block of Z's columns: where no variables pack, the dataset holds
        # no other array of N m cells or of N rows, even inside a tuple
        # (the packed view is the code rows)
        ds, others, marginals = self.read_every_cell(rng)
        assert len(ds.packed.rows) == ds.n_vars
        assert others == [] and marginals == []

    def test_cell_readers_keep_one_packed_copy(self, rng, monkeypatch):
        # packed, the dataset holds one more G x N array, G < m, beside a
        # prod(q) x sum(q) marginal matrix per group shape
        monkeypatch.setattr(mscca.data, "_PACK_OBS", 1)
        ds, others, marginals = self.read_every_cell(rng)
        packed = ds.packed
        assert len(packed.groups) < ds.n_vars and marginals
        assert len(others) == 1 and others[0] is packed.rows
        assert others[0].shape == (len(packed.groups), ds.n_obs)
        for group, size, matrix in zip(packed.groups, packed.sizes, packed.marginals):
            if len(group) > 1:
                assert matrix.shape == (size, sum(ds.q[j] for j in group))

    def test_containers_built_from_codes(self, rng):
        codes = rng.integers(0, 3, size=(40, 4))
        codes[:3, :] = np.arange(3)[:, None]
        labels, names = (("a", "b", "c"),) * 4, ("p", "q", "r", "s")
        for kind in (CategoricalDataset, SupplementaryData):
            data = kind(codes=codes, labels=labels, names=names)
            self.assert_one_layout(data)
            assert data.codes.tolist() == codes.tolist()
            assert not np.shares_memory(data.codes, codes)
            # a container built from another's codes keeps its rows
            again = kind(codes=data.codes, labels=labels, names=names)
            assert again.codes.base is data.codes.base

    def test_read_peak_of_a_50000_by_22_csv(self, tmp_path):
        # The tracemalloc peak of one read is bounded by 2.75 times the
        # bytes of the table's codes (8.8 MB); reading through a table-wide
        # id table, renumbered per column and copied into each container,
        # peaked at 2.88 times.
        n = 50_000
        ds, _ = generate_clustered(GenSpec(q=5, k=3, n_obs=n, n_vars=20, seed=1))
        sup = generate_supplementary(SupGenSpec(n_sup=2, r=3, seed=2), n)
        columns = [np.asarray(ds.labels[j])[ds.codes[:, j]] for j in range(ds.n_vars)]
        columns += [np.asarray(sup.labels[h])[sup.codes[:, h]] for h in range(sup.n_sup)]
        lines = [",".join(ds.names + sup.names)]
        lines += [",".join(row) for row in zip(*(c.tolist() for c in columns))]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        del columns, lines
        read_csv_dataset(path, ["s1", "s2"])  # lazy set-up
        peak = traced_peak(lambda: read_csv_dataset(path, ["s1", "s2"]))
        assert peak <= 2.75 * n * 22 * 8
