import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import jacobi_eigenvalues

from containment.linalg import sym_eigenvalues, sym_eigh

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

    @pytest.mark.parametrize("solve", [sym_eigenvalues, sym_eigh])
    def test_rejects_one_ulp_asymmetry(self, solve):
        a = PATH3_LAPLACIAN.copy()
        a[0, 1] = np.nextafter(a[0, 1], 0.0)
        with pytest.raises(ValueError, match="not symmetric"):
            solve(a)

    @pytest.mark.parametrize("solve", [sym_eigenvalues, sym_eigh])
    def test_rejects_non_finite(self, solve):
        with pytest.raises(ValueError, match="non-finite"):
            solve([[np.nan]])

    @pytest.mark.parametrize("solve", [sym_eigenvalues, sym_eigh])
    def test_overflowing_eigenvalue_is_an_error(self, solve):
        # every entry is finite, but the largest eigenvalue is 2e308
        with pytest.raises(ValueError, match="^an eigenvalue overflows a double$"):
            solve([[1e308, -1e308], [-1e308, 1e308]])

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_exactly_symmetric_input_goes_to_lapack_as_it_is(self, seed, n):
        g = np.random.default_rng(seed).normal(size=(n, n))
        sym = 0.5 * (g + g.T)
        lam, v = sym_eigh(sym)
        want_lam, want_v = np.linalg.eigh(sym)
        np.testing.assert_array_equal(lam, want_lam)
        np.testing.assert_array_equal(v, want_v)
        np.testing.assert_array_equal(sym_eigenvalues(sym), np.linalg.eigvalsh(sym))

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
