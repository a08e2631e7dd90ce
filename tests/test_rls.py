import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dopptrack import rls


class TestInit:
    def test_factor_is_sqrt_ridge_diagonal(self):
        state = rls.init(3, ridge=1e-4)
        np.testing.assert_array_equal(state.factor,
                                      np.diag([1e-2, 1e-2, 1e-2, 0.0]))
        assert state.dim == 3

    def test_zero_estimate_and_lse(self):
        state = rls.init(2, ridge=0.5)
        assert np.all(state.estimate == 0.0)
        assert state.lse == 0.0
        assert state.count == 0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            rls.init(0, ridge=1e-4)
        with pytest.raises(ValueError):
            rls.init(2, ridge=0.0)


class TestUpdate:
    def test_exact_linear_data(self):
        state = rls.init(1, ridge=1e-10)
        for g, y in [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]:
            rls.update(state, np.array([g]), y)
        assert state.estimate[0] == pytest.approx(2.0, abs=1e-8)
        assert state.lse <= 1e-8

    def test_zero_row_is_noop(self):
        state = rls.init(3, ridge=1e-4)
        rls.update(state, np.array([1.0, 0.5, -0.2]), 1.0)
        before = (state.estimate.copy(), state.lse)
        rls.update(state, np.zeros(3), 123.0)
        np.testing.assert_array_equal(state.estimate, before[0])
        assert state.lse == before[1]

    def test_single_axis_row(self):
        state = rls.init(3, ridge=1e-10)
        rls.update(state, np.array([1.0, 0.0, 0.0]), 5.0)
        np.testing.assert_allclose(state.estimate, [5.0, 0.0, 0.0], atol=1e-8)

    def test_a_posteriori_residual_shrinks(self):
        state = rls.init(1, ridge=1.0)
        _, e_post = rls.update(state, np.array([2.0]), 1.0)
        e_pri = 1.0
        assert abs(e_post) < abs(e_pri)

    def test_non_finite_rejected(self):
        state = rls.init(2, ridge=1e-4)
        with pytest.raises(ValueError):
            rls.update(state, np.array([np.nan, 0.0]), 1.0)
        with pytest.raises(ValueError):
            rls.update(state, np.array([1.0, 0.0]), np.inf)

    def test_lse_monotone(self):
        rng = np.random.default_rng(0)
        state = rls.init(3, ridge=1e-4)
        prev = 0.0
        for _ in range(500):
            rls.update(state, rng.normal(size=3), rng.normal())
            assert state.lse >= prev - 1e-15
            prev = state.lse

    def test_factor_stays_triangular_and_nonsingular(self):
        rng = np.random.default_rng(1)
        state = rls.init(4, ridge=1e-4)
        for _ in range(10000):
            rls.update(state, rng.normal(size=4), rng.normal())
        np.testing.assert_array_equal(state.factor, np.triu(state.factor))
        assert np.all(np.diag(state.factor)[:4] != 0.0)


class TestOracleEquivalence:
    def test_random_instances_match_direct_solve(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(1, 6))
            rows = int(rng.integers(dim + 1, 201))
            A = rng.normal(size=(rows, dim))
            y = rng.normal(size=rows)
            state = rls.init(dim, ridge=1e-8)
            for g, t in zip(A, y):
                rls.update(state, g, t)
            x, lse = rls.solve_direct(A, y, ridge=1e-8)
            np.testing.assert_allclose(state.estimate, x, rtol=1e-8, atol=1e-10)
            assert state.lse == pytest.approx(lse, rel=1e-8, abs=1e-10)


@st.composite
def instances(draw):
    """Random (rows, targets, ridge): dim 1-5, dim+1 to 60 rows, row scale
    1e-3 to 1e3, ridge 1e-10 to 1."""
    dim = draw(st.integers(1, 5))
    n_rows = draw(st.integers(dim + 1, 60))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    ridge = 10.0 ** draw(st.floats(-10.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (scale * rng.normal(size=(n_rows, dim)), rng.normal(size=n_rows),
            ridge)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


class TestProperties:
    @PROPERTY
    @given(instances())
    def test_update_matches_direct_solve(self, instance):
        A, y, ridge = instance
        state = rls.init(A.shape[1], ridge)
        for g, t in zip(A, y):
            rls.update(state, g, t)
        x, lse = rls.solve_direct(A, y, ridge)
        np.testing.assert_allclose(state.estimate, x, rtol=1e-8,
                                   atol=1e-12 * np.linalg.norm(x))
        assert state.lse == pytest.approx(lse, rel=1e-8)

    @PROPERTY
    @given(instances(), st.integers(1, 4))
    def test_update_batch_matches_sequential(self, instance, n_states):
        A, y, ridge = instance
        # every state sees all rows, each in a different order
        rows = np.stack([np.roll(A, h, axis=0) for h in range(n_states)])
        targets = np.stack([np.roll(y, h) for h in range(n_states)])
        factors = np.stack([rls.init(A.shape[1], ridge).factor
                            for _ in range(n_states)])
        lse = rls.update_batch(factors, rows, targets)
        estimates = rls.estimate(factors)
        for h in range(n_states):
            s = rls.init(A.shape[1], ridge)
            for g, t in zip(rows[h], targets[h]):
                rls.update(s, g, t)
            np.testing.assert_allclose(estimates[h], s.estimate, rtol=1e-8,
                                       atol=1e-12 * np.linalg.norm(s.estimate))
            assert lse[h] == pytest.approx(s.lse, rel=1e-8)
            assert s.count == len(y)


class TestSolveDirect:
    def test_mean_of_two_points(self):
        x, lse = rls.solve_direct([[1.0], [1.0]], [1.0, 3.0], ridge=1e-12)
        assert x[0] == pytest.approx(2.0, abs=1e-9)
        assert lse == pytest.approx(2.0, abs=1e-9)

    def test_needs_rows(self):
        with pytest.raises(ValueError):
            rls.solve_direct(np.empty((0, 2)), [], ridge=1e-8)


class TestUpdateBatch:
    def test_matches_sequential_updates(self):
        rng = np.random.default_rng(5)
        H, R, dim = 7, 4, 3
        rows = rng.normal(size=(H, R, dim))
        targets = rng.normal(size=(H, R))
        factors = np.stack([rls.init(dim, ridge=1e-4).factor
                            for _ in range(H)])
        lse = rls.update_batch(factors, rows, targets)
        seq = [rls.init(dim, ridge=1e-4) for _ in range(H)]
        for h in range(H):
            for m in range(R):
                rls.update(seq[h], rows[h, m], targets[h, m])
        estimates = rls.estimate(factors)
        for h, s in enumerate(seq):
            # QR fixes the R factor only up to the sign of each row
            np.testing.assert_allclose(np.abs(factors[h]), np.abs(s.factor),
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(estimates[h], s.estimate, rtol=1e-12)
            assert lse[h] == pytest.approx(s.lse, rel=1e-12, abs=1e-15)

    def test_updates_a_slice_in_place(self):
        rng = np.random.default_rng(6)
        factors = np.stack([rls.init(2, ridge=1e-4).factor for _ in range(5)])
        untouched = factors[3:].copy()
        lse = rls.update_batch(factors[:3], rng.normal(size=(3, 2, 2)),
                               rng.normal(size=(3, 2)))
        np.testing.assert_array_equal(lse, factors[:3, 2, 2] ** 2)
        assert np.all(lse > 0.0)
        np.testing.assert_array_equal(factors[3:], untouched)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rls.update_batch(rls.init(2, 1e-4).factor[None],
                             np.zeros((2, 1, 2)), np.zeros((2, 1)))
