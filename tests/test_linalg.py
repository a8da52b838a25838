import numpy as np
import pytest
from numpy.testing import assert_allclose

from mscca import center_columns, mass_scale, sym_eig_top
from mscca.errors import MassError, ShapeError, SymmetryError


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

    def test_reconstruction_bounded_by_next_eigenvalue(self, rng):
        a = rng.normal(size=(6, 6))
        s = a @ a.T  # positive semidefinite
        res = sym_eig_top(s, 3)
        recon = res.vectors @ np.diag(res.values) @ res.vectors.T
        full = sym_eig_top(s, 6)
        gap = np.linalg.norm(s - recon, ord=2)
        assert gap <= full.values[3] + 1e-8


class TestMassScale:
    def test_single_mass(self):
        assert_allclose(mass_scale([[2.0]], [4.0], -0.5), [[1.0]])

    def test_inverse_pair(self, rng):
        m = rng.normal(size=(3, 3))
        d = rng.uniform(0.5, 2.0, size=3)
        back = mass_scale(mass_scale(m, d, 0.5), d, -0.5)
        assert_allclose(back, m, atol=1e-12)

    def test_column_side(self):
        # direct arithmetic: 1/sqrt(2) and 1/sqrt(8)
        out = mass_scale([[1.0, 1.0]], [2.0, 8.0], -0.5, side="right")
        assert_allclose(out, [[0.7071, 0.3536]], atol=1e-4)

    def test_nonpositive_mass(self):
        with pytest.raises(MassError):
            mass_scale([[1.0]], [0.0], -0.5)
        with pytest.raises(MassError):
            mass_scale([[1.0]], [-1.0], 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mass_scale(np.eye(3), [1.0, 2.0], -1.0, side="left")
