import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import jacobi_eigenvalues

from containment.dynamics import build_h
from containment.graph import is_bar_connected, link_weights
from containment.linalg import (
    NotPositiveDefiniteError,
    is_row_stochastic,
    solve_spd,
    sym_eigenvalues,
)
from containment.sampling import random_topology, rng_for

PATH3_LAPLACIAN = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


class TestSymEigenvalues:
    def test_path3_laplacian(self):
        # characteristic polynomial lambda (lambda^2 - 4 lambda + 3)
        np.testing.assert_allclose(
            sym_eigenvalues(PATH3_LAPLACIAN), [0.0, 1.0, 3.0], atol=1e-12
        )

    def test_zero_matrix(self):
        np.testing.assert_array_equal(sym_eigenvalues(np.zeros((3, 3))), np.zeros(3))

    def test_diagonal(self):
        np.testing.assert_allclose(sym_eigenvalues(np.diag([5.0, 2.0])), [2.0, 5.0])

    def test_single_entry(self):
        np.testing.assert_array_equal(sym_eigenvalues([[7.0]]), [7.0])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            sym_eigenvalues(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eigenvalues([[0.0, 1.0], [0.0, 0.0]])

    @given(seed=st.integers(0, 10**6), n=st.integers(2, 10))
    @example(seed=48, n=48)
    @settings(max_examples=30, deadline=None)
    def test_matches_numpy(self, seed, n):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(n, n))
        sym = 0.5 * (g + g.T)
        got = sym_eigenvalues(sym)
        want = jacobi_eigenvalues(sym)
        scale = 1.0 + np.abs(sym).max()
        assert np.abs(got - want).max() <= 1e-9 * scale


class TestSolveSpd:
    def test_hand_inverse(self):
        h = np.array([[2.0, -1.0], [-1.0, 1.0]])  # inverse [[1, 1], [1, 2]]
        np.testing.assert_allclose(solve_spd(h, [1.0, 0.0]), [1.0, 1.0], atol=1e-12)

    def test_identity(self):
        rhs = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(solve_spd(np.eye(3), rhs), rhs)

    def test_singular_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            solve_spd([[1.0, -1.0], [-1.0, 1.0]], [1.0, 0.0])

    def test_negative_definite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            solve_spd(-np.eye(3), np.ones(3))

    def test_rhs_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_spd(np.eye(2), np.ones(3))

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 9))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_random_spd(self, seed, n):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(n, n))
        h = g.T @ g + np.eye(n)
        rhs = rng.normal(size=(n, 2))
        x = solve_spd(h, rhs)
        resid = np.abs(h @ x - rhs).max()
        assert resid <= 1e-9 * (1.0 + np.abs(rhs).max())

    def test_definite_iff_bar_connected(self):
        # the numerical positive-definite decision must match the graph's at
        # any weight scale (H and B are linear in the weights)
        for trial in range(200):
            t = random_topology(rng_for(7, trial), linked=trial % 2 == 0)
            for scale in (1.0, 1e-13, 1e13):
                try:
                    solve_spd(scale * build_h(t), scale * link_weights(t))
                    definite = True
                except NotPositiveDefiniteError:
                    definite = False
                assert definite == is_bar_connected(t), (trial, scale)


class TestRowStochastic:
    def test_examples(self):
        assert is_row_stochastic([[0.5, 0.5], [1.0, 0.0]], 1e-9)
        assert not is_row_stochastic([[1.2, -0.2]], 1e-9)

    def test_row_sum_off(self):
        assert not is_row_stochastic([[0.5, 0.4]], 1e-9)

    def test_tolerance_band(self):
        assert is_row_stochastic([[0.5 + 5e-10, 0.5]], 1e-9)

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            is_row_stochastic([[1.0]], 0.0)
