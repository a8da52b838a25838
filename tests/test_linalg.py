import numpy as np
import pytest
from numpy.testing import assert_allclose

from mscca import mass_scale, sym_eig_top
import mscca.linalg
from mscca.linalg import ROW_BLOCK, SymEigResult, _symmetry_gap, gram_eig_top
from mscca.errors import EigenSolverError, MassError, ShapeError, SymmetryError

from conftest import center_columns, gram_eig_top_every_kept_column, sym_eig_top_full_spectrum


class TestCenterColumns:
    def test_mean_removal(self):
        assert_allclose(center_columns([[1.0], [3.0]]), [[-1.0], [1.0]])

    def test_idempotent(self, rng):
        m = rng.normal(size=(7, 4))
        once = center_columns(m)
        assert_allclose(center_columns(once), once, atol=1e-12)

    def test_constant_column_annihilated(self):
        m = np.full((5, 2), 3.25)
        assert_allclose(center_columns(m), np.zeros((5, 2)), atol=1e-12)

    def test_column_means_vanish(self, rng):
        out = center_columns(rng.normal(size=(11, 5)))
        assert np.abs(out.mean(axis=0)).max() < 1e-12


class TestSymEigTop:
    def test_identity_top_two(self):
        res = sym_eig_top(np.eye(3), 2)
        assert_allclose(res.values, [1.0, 1.0])
        assert_allclose(res.vectors.T @ res.vectors, np.eye(2), atol=1e-10)
        # sign convention: pivot entries positive
        pivots = np.abs(res.vectors).argmax(axis=0)
        assert (res.vectors[pivots, np.arange(2)] > 0).all()

    def test_diagonal(self):
        res = sym_eig_top(np.diag([3.0, 1.0, 0.0]), 1)
        assert_allclose(res.values, [3.0])
        assert_allclose(res.vectors[:, 0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_two_by_two(self):
        # characteristic polynomial of [[2,1],[1,2]]: roots 3 and 1
        res = sym_eig_top(np.array([[2.0, 1.0], [1.0, 2.0]]), 2)
        assert_allclose(res.values, [3.0, 1.0], atol=1e-12)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert_allclose(res.vectors[:, 0], [inv_sqrt2, inv_sqrt2], atol=1e-12)
        assert_allclose(res.vectors[:, 1], [inv_sqrt2, -inv_sqrt2], atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(SymmetryError):
            sym_eig_top(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)

    def test_bad_p(self):
        with pytest.raises(ShapeError):
            sym_eig_top(np.eye(3), 0)
        with pytest.raises(ShapeError):
            sym_eig_top(np.eye(3), 4)

    def test_eigen_residual_and_trace(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n))
            s = a + a.T
            res = sym_eig_top(s, n)
            for i in range(n):
                assert_allclose(s @ res.vectors[:, i], res.values[i] * res.vectors[:, i], atol=1e-8)
            assert res.values.sum() == pytest.approx(np.trace(s), abs=1e-8)

    def test_deterministic_repeat(self, rng):
        a = rng.normal(size=(6, 6))
        s = a + a.T
        r1 = sym_eig_top(s, 4)
        r2 = sym_eig_top(s, 4)
        assert r1.values.tobytes() == r2.values.tobytes()
        assert r1.vectors.tobytes() == r2.vectors.tobytes()

    def test_tied_zero_spectrum_ordered_by_pivot(self):
        res = sym_eig_top(np.zeros((4, 4)), 3)
        assert_allclose(res.values, np.zeros(3))
        assert_allclose(res.vectors, np.eye(4)[:, :3], atol=1e-12)

    def test_two_tie_groups_ordered_by_pivot_separately(self):
        res = sym_eig_top(np.diag([2.0, 5.0, 2.0, 5.0, 1.0]), 5)
        assert_allclose(res.values, [5.0, 5.0, 2.0, 2.0, 1.0])
        assert_allclose(res.vectors, np.eye(5)[:, [1, 3, 0, 2, 4]], atol=1e-12)

    def test_one_blas_thread_around_eigh(self, monkeypatch):
        # the LAPACK call (dsyevr, or the fallback eigh where numpy's BLAS
        # exports no dsyevr) runs on one BLAS thread; the previous count
        # comes back after it, also when it fails, and without an OpenBLAS
        # to pin nothing is set
        threads = [3]
        monkeypatch.setattr(
            mscca.linalg, "_blas_threads", lambda: (lambda: threads[-1], threads.append)
        )
        inside = []

        def recording(solve):
            def recorded(*args):
                inside.append(threads[-1])
                return solve(*args)

            return recorded

        def raising(*args):
            raise RuntimeError("interrupted")

        matrix = np.diag([3.0, 2.0, 1.0])  # p = 2: one solve of all 3 pairs
        dsyevr = mscca.linalg._dsyevr()
        if dsyevr is not None:
            monkeypatch.setattr(mscca.linalg, "_dsyevr", lambda: recording(dsyevr))
            assert_allclose(sym_eig_top(matrix, 2).values, [3.0, 2.0])
            assert inside == [1] and threads == [3, 1, 3]
        inside.clear()
        threads[:] = [3]

        for solve, error in ((lambda *args: 2, EigenSolverError), (raising, RuntimeError)):
            monkeypatch.setattr(mscca.linalg, "_dsyevr", lambda: recording(solve))
            with pytest.raises(error):
                sym_eig_top(matrix, 2)
        assert inside == [1, 1] and threads == [3, 1, 3, 1, 3]

        eigh = np.linalg.eigh
        monkeypatch.setattr(mscca.linalg, "_dsyevr", lambda: None)
        monkeypatch.setattr(np.linalg, "eigh", recording(eigh))
        assert_allclose(sym_eig_top(matrix, 2).values, [3.0, 2.0])
        assert inside == [1, 1, 1] and threads == [3, 1, 3, 1, 3, 1, 3]

        def failing(matrix):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", recording(failing))
        with pytest.raises(EigenSolverError, match="no convergence"):
            sym_eig_top(matrix, 2)
        assert inside == [1, 1, 1, 1] and threads == [3, 1, 3, 1, 3, 1, 3, 1, 3]
        monkeypatch.setattr(mscca.linalg, "_blas_threads", lambda: None)
        monkeypatch.setattr(np.linalg, "eigh", recording(eigh))
        assert_allclose(sym_eig_top(matrix, 2).values, [3.0, 2.0])
        assert inside == [1, 1, 1, 1, 3] and threads == [3, 1, 3, 1, 3, 1, 3, 1, 3]

    def test_bundled_openblas_count_restored(self):
        blas = mscca.linalg._blas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
        get, set_ = blas
        previous = get()
        try:
            set_(2)
            with mscca.linalg._one_blas_thread():
                assert get() == 1
            assert get() == 2
        finally:
            set_(previous)

    def test_reconstruction_bounded_by_next_eigenvalue(self, rng):
        a = rng.normal(size=(6, 6))
        s = a @ a.T  # positive semidefinite
        res = sym_eig_top(s, 3)
        recon = res.vectors @ np.diag(res.values) @ res.vectors.T
        full = sym_eig_top(s, 6)
        gap = np.linalg.norm(s - recon, ord=2)
        assert gap <= full.values[3] + 1e-8


def with_spectrum(rng, values):
    """V diag(values) V' for a random orthogonal V: symmetric up to
    rounding, not bit for bit."""
    v, _ = np.linalg.qr(rng.normal(size=(len(values), len(values))))
    return (v * np.asarray(values, dtype=float)) @ v.T


# Descending spectra with tie groups, and zero eigenspaces like the
# m-dimensional one of a centered Burt matrix; the second is larger than
# two row blocks and not a multiple of one.
SMALL_SPECTRUM = [4.0, 3.0, 3.0, 2.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
BLOCKED_SPECTRUM = [7.0] * 3 + list(np.linspace(6.0, 1.0, 117)) + [0.5] * 10 + [0.0] * 20


NEAR_THE_TOP = [
    (SMALL_SPECTRUM, range(1, 11)),
    # ties below, at and across p, in the 7-, 0.5- and zero groups
    (BLOCKED_SPECTRUM, [1, 2, 3, 4, 60, 120, 121, 125, 130, 131, 140, 150]),
]


def needs_dsyevr():
    if mscca.linalg._dsyevr() is None:
        pytest.skip("numpy's BLAS exports no LAPACKE dsyevr")


class TestSymEigTopNearTheTop:
    """Only the tie group holding column p - 1 is ordered past column p;
    the full-spectrum ordering is the oracle."""

    @pytest.mark.parametrize("spectrum, ps", NEAR_THE_TOP)
    def test_matches_full_spectrum_byte_for_byte(self, rng, monkeypatch, spectrum, ps):
        # on the fallback path, which solves the whole spectrum with eigh
        monkeypatch.setattr(mscca.linalg, "_dsyevr", lambda: None)
        s = with_spectrum(rng, spectrum)
        assert np.abs(s - s.T).max() > 0.0
        for matrix in (s, 0.5 * (s + s.T)):  # rounded, and mirrored bit for bit
            before = matrix.copy()
            for p in ps:
                res = sym_eig_top(matrix, p)
                oracle = sym_eig_top_full_spectrum(matrix, p)
                assert res.values.tobytes() == oracle.values.tobytes()
                assert res.vectors.tobytes() == oracle.vectors.tobytes()
            assert matrix.tobytes() == before.tobytes()

    @pytest.mark.parametrize("spectrum, ps", NEAR_THE_TOP)
    def test_dsyevr_matches_full_spectrum(self, rng, spectrum, ps):
        # dsyevr's top pairs against the full eigh: the same values and
        # eigenspaces, each tie group in pivot order with positive pivots
        needs_dsyevr()
        s = with_spectrum(rng, spectrum)
        scale = max(np.abs(spectrum))
        for matrix in (s, 0.5 * (s + s.T)):
            before = matrix.copy()
            full = sym_eig_top_full_spectrum(matrix, len(matrix)).values
            group = np.cumsum(np.concatenate(([0], mscca.linalg._breaks(full))))
            for p in ps:
                res = sym_eig_top(matrix, p)
                oracle = sym_eig_top_full_spectrum(matrix, p)
                assert np.abs(res.values - oracle.values).max() <= 1e-12 * scale
                pivots = np.abs(res.vectors).argmax(axis=0)
                assert (res.vectors[pivots, np.arange(p)] > 0).all()
                for g in np.unique(group[:p]):
                    cols = np.flatnonzero(group == g)
                    assert (np.diff(pivots[cols[cols < p]]) >= 0).all()
                    if cols[-1] < p:  # the whole group is inside the top p
                        got, want = res.vectors[:, cols], oracle.vectors[:, cols]
                        assert np.abs(got @ got.T - want @ want.T).max() <= 1e-10
                again = sym_eig_top(matrix, p)
                assert again.values.tobytes() == res.values.tobytes()
                assert again.vectors.tobytes() == res.vectors.tobytes()
            assert matrix.tobytes() == before.tobytes()

    def test_dsyevr_retries_until_the_tie_group_ends(self, rng, monkeypatch):
        # p + 1 pairs first; all n if the tie group holding column p - 1
        # runs past them: the 7-group of three at p = 1, 2
        needs_dsyevr()
        solve, sizes = mscca.linalg._dsyevr_top, []

        def recorded(dsyevr, matrix, k):
            sizes.append(k)
            return solve(dsyevr, matrix, k)

        monkeypatch.setattr(mscca.linalg, "_dsyevr_top", recorded)
        s = with_spectrum(rng, BLOCKED_SPECTRUM)
        n = len(BLOCKED_SPECTRUM)
        expected = {1: [2, n], 2: [3, n], 3: [4], 4: [5]}
        for p, ks in expected.items():
            sizes.clear()
            res = sym_eig_top(s, p)
            assert sizes == ks
            assert_allclose(res.values, BLOCKED_SPECTRUM[:p], rtol=1e-12)
        sizes.clear()
        sym_eig_top(np.zeros((40, 40)), 1)  # one group: up to every column
        assert sizes == [2, 40]

    def test_zero_matrix_larger_than_a_block(self):
        # one tie group across every column
        n = 2 * ROW_BLOCK + 5
        for p in (1, ROW_BLOCK, n):
            res = sym_eig_top(np.zeros((n, n)), p)
            assert res.vectors.tobytes() == np.eye(n)[:, :p].tobytes()

    def test_argument_unchanged(self, rng):
        s = with_spectrum(rng, BLOCKED_SPECTRUM)
        s[3, 140] += 1e-12  # asymmetric within TOL.symmetry
        before = s.copy()
        res = sym_eig_top(s, 5)
        assert s.tobytes() == before.tobytes()
        assert not np.shares_memory(res.vectors, s)


class TestSymmetryCheck:
    def test_blocked_gap_matches_whole_array(self, rng):
        n = 2 * ROW_BLOCK + 13
        assert n % ROW_BLOCK
        a = rng.normal(size=(n, n))
        s = a + a.T
        s[5, 100] += 1e-12
        last = 2 * ROW_BLOCK
        s[last + 3, last + 10] += 4e-11  # both in the last, partial block
        gap = _symmetry_gap(s)
        assert gap == np.abs(s - s.T).max()
        assert gap == abs(s[last + 3, last + 10] - s[last + 10, last + 3])

    def test_gap_beyond_tolerance_rejected(self, rng):
        n = ROW_BLOCK + 7
        s = np.eye(n)
        s[n - 1, n - 2] = 2e-10
        with pytest.raises(SymmetryError, match=r"max \|S - S'\| = 2\.000e-10"):
            sym_eig_top(s, 2)

    @pytest.mark.parametrize(
        "entry, value, named",
        [
            ((2, 1), np.nan, "nan at (2, 1)"),
            ((3, 3), np.inf, "inf at (3, 3)"),
            ((0, 3), -np.inf, "-inf at (0, 3)"),
        ],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_entry_rejected(self, entry, value, named):
        s = np.eye(4)
        s[entry] = value
        with pytest.raises(SymmetryError) as info:
            sym_eig_top(s, 2)
        message = str(info.value)
        assert named in message and "\n" not in message

    def test_first_non_finite_entry_named(self):
        # row by row, the first of two, though the other has the lower
        # column and meets its mirror in the same block
        n = 2 * ROW_BLOCK + 13
        s = np.eye(n)
        s[n - 1, 2] = np.nan
        s[5, n - 3] = np.inf
        with pytest.raises(SymmetryError, match=rf"inf at \(5, {n - 3}\)"):
            sym_eig_top(s, 2)


def gram_one(factor, p):
    """``gram_eig_top`` on a stack of one factor: its result and its count
    of kept eigenvalues."""
    eig, kept = gram_eig_top(np.asarray(factor, dtype=float)[None], p)
    return SymEigResult(values=eig.values[0], vectors=eig.vectors[0]), int(kept[0])


class TestGramEigTop:
    def test_matches_direct_route(self, rng):
        for _ in range(20):
            k, q = int(rng.integers(2, 6)), int(rng.integers(6, 12))
            f = rng.normal(size=(k, q))
            p = int(rng.integers(1, k + 1))
            reduced, _ = gram_one(f, p)
            direct = sym_eig_top(f.T @ f, p)
            assert_allclose(reduced.values, direct.values, rtol=1e-12)
            assert_allclose(reduced.vectors, direct.vectors, atol=1e-10)

    def test_unit_orthogonal_vectors(self, rng):
        f = rng.normal(size=(4, 30))
        res, _ = gram_one(f, 4)
        assert_allclose(res.vectors.T @ res.vectors, np.eye(4), atol=1e-12)
        assert_allclose(f.T @ f @ res.vectors, res.vectors * res.values, atol=1e-10)

    def test_tie_groups_ordered_by_pivot_as_direct_route(self):
        # F'F = diag(2, 5, 2, 5, 0): the order of sym_eig_top's tie test
        f = np.zeros((4, 5))
        f[0, 1] = f[1, 3] = np.sqrt(5.0)
        f[2, 0] = f[3, 2] = np.sqrt(2.0)
        res, _ = gram_one(f, 4)
        assert_allclose(res.values, [5.0, 5.0, 2.0, 2.0])
        assert_allclose(res.vectors, np.eye(5)[:, [1, 3, 0, 2]], atol=1e-12)

    def test_sign_convention_in_q_space(self, rng):
        res, _ = gram_one(rng.normal(size=(3, 9)), 3)
        pivots = np.abs(res.vectors).argmax(axis=0)
        assert (res.vectors[pivots, np.arange(3)] > 0).all()

    def test_none_when_rank_below_p(self):
        # rank 1: the second column would come from the null space, which
        # the K x K problem does not define; it is left zero
        f = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        res, kept = gram_one(f, 2)
        top, _ = gram_one(f, 1)
        assert kept == 1
        assert res.values.tolist() == [top.values[0], 0.0]
        assert_allclose(top.values, [25.0])
        assert res.vectors[:, :1].tobytes() == top.vectors.tobytes()
        assert res.vectors[:, 1].tolist() == [0.0, 0.0, 0.0]
        res, kept = gram_one(np.zeros((3, 4)), 1)
        assert kept == 0
        assert res.values.tolist() == [0.0] and not res.vectors.any()

    def test_stack_entries_match_lone_factors(self, rng):
        # Mixed ranks (so mixed counts of kept eigenvalues), entries with
        # fewer than p kept (one with none) and a tied spectrum: each entry
        # of the stack is the lone factor's result bit for bit, zero past
        # its kept columns.
        tied = np.zeros((4, 9))
        tied[0, 1] = tied[1, 3] = np.sqrt(5.0)
        tied[2, 0] = tied[3, 2] = np.sqrt(2.0)
        factors = [rng.normal(size=(4, 9)) for _ in range(3)]
        factors[1][3] = factors[1][0] + factors[1][2]  # rank 3
        factors += [tied, np.outer([1.0, 2.0, 0.0, 1.0], rng.normal(size=9))]  # rank 1
        factors.append(np.zeros((4, 9)))
        for p in (1, 2, 3, 4):
            eig, kept = gram_eig_top(np.stack(factors), p)
            assert kept.tolist() == [4, 3, 4, 4, 1, 0]
            for s, factor in enumerate(factors):
                alone, alone_kept = gram_one(factor, p)
                assert alone_kept == kept[s]
                assert eig.values[s].tobytes() == alone.values.tobytes()
                assert eig.vectors[s].tobytes() == alone.vectors.tobytes()
                assert not eig.values[s, kept[s]:].any() and not eig.vectors[s, :, kept[s]:].any()

    def test_same_bits_as_mapping_every_kept_column(self, rng):
        # Full and deficient ranks, ties below, at and across column p - 1,
        # and p = 1, where a lone mapped column would take another matmul
        # kernel than the oracle's two or more.
        tied = np.zeros((6, 9))
        tied[0, 1] = tied[1, 3] = tied[2, 5] = np.sqrt(5.0)
        tied[3, 0] = tied[4, 2] = np.sqrt(2.0)
        for _ in range(20):
            k, q = int(rng.integers(2, 7)), int(rng.integers(7, 15))
            factors = [rng.normal(size=(k, q)) for _ in range(4)]
            factors[1][-1] = factors[1][0] - factors[1][1]  # rank k - 1
            factors[2] = np.outer(rng.normal(size=k), rng.normal(size=q))  # rank 1
            factors.append(np.zeros((k, q)))
            for p in range(1, k + 1):
                eig, kept = gram_eig_top(np.stack(factors), p)
                want, want_kept = gram_eig_top_every_kept_column(np.stack(factors), p)
                assert kept.tolist() == want_kept.tolist()
                assert eig.values.tobytes() == want.values.tobytes()
                assert eig.vectors.tobytes() == want.vectors.tobytes()
        for p in range(1, 7):
            eig, _ = gram_eig_top(tied[None], p)
            want, _ = gram_eig_top_every_kept_column(tied[None], p)
            assert eig.vectors.tobytes() == want.vectors.tobytes()


class TestMassScale:
    def test_single_mass(self):
        assert_allclose(mass_scale([[2.0]], [4.0], -0.5), [[1.0]])

    def test_inverse_pair(self, rng):
        m = rng.normal(size=(3, 3))
        d = rng.uniform(0.5, 2.0, size=3)
        back = mass_scale(mass_scale(m, d, 0.5), d, -0.5)
        assert_allclose(back, m, atol=1e-12)

    def test_nonpositive_mass(self):
        with pytest.raises(MassError):
            mass_scale([[1.0]], [0.0], -0.5)
        with pytest.raises(MassError):
            mass_scale([[1.0]], [-1.0], 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mass_scale(np.eye(3), [1.0, 2.0], -1.0)
