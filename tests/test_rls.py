import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dopptrack import rls


class TestInit:
    def test_factor_is_sqrt_ridge_diagonal(self):
        factor = rls.init(3, ridge=1e-4)
        np.testing.assert_array_equal(factor, np.diag([1e-2, 1e-2, 1e-2, 0.0]))

    def test_zero_estimate_and_lse(self):
        factor = rls.init(2, ridge=0.5)
        assert np.all(rls.estimate(factor) == 0.0)
        assert factor[2, 2] ** 2 == 0.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            rls.init(0, ridge=1e-4)
        for ridge in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                rls.init(2, ridge=ridge)


class TestUpdate:
    def test_exact_linear_data(self):
        factor = rls.init(1, ridge=1e-10)
        for g, y in [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]:
            lse = rls.update(factor, np.array([g]), y)
        assert rls.estimate(factor)[0] == pytest.approx(2.0, abs=1e-8)
        assert lse <= 1e-8

    # lse is solve_direct's cost on the same rows: a zero row is charged its
    # target squared, and it moves no estimate
    def test_zero_row_charges_its_target(self):
        factor = rls.init(3, ridge=1e-4)
        lse = rls.update(factor, np.array([1.0, 0.5, -0.2]), 1.0)
        before = rls.estimate(factor)
        assert rls.update(factor, np.zeros(3), 3.0) \
            == pytest.approx(lse + 9.0, rel=1e-15)
        np.testing.assert_array_equal(rls.estimate(factor), before)
        factors = np.stack([factor, factor])
        lse_batch = rls.update_batch(factors, np.zeros((2, 2, 3)),
                                     np.array([[2.0, 0.0], [0.0, -1.0]]))
        np.testing.assert_allclose(lse_batch, [lse + 13.0, lse + 10.0],
                                   rtol=1e-15)
        np.testing.assert_array_equal(rls.estimate(factors),
                                      [before, before])

    def test_single_axis_row(self):
        factor = rls.init(3, ridge=1e-10)
        rls.update(factor, np.array([1.0, 0.0, 0.0]), 5.0)
        np.testing.assert_allclose(rls.estimate(factor), [5.0, 0.0, 0.0],
                                   atol=1e-8)

    def test_a_posteriori_residual_shrinks(self):
        factor = rls.init(1, ridge=1.0)
        row, target = np.array([2.0]), 1.0
        rls.update(factor, row, target)
        e_post = target - row @ rls.estimate(factor)
        e_pri = 1.0
        assert abs(e_post) < abs(e_pri)

    def test_non_finite_rejected(self):
        factor = rls.init(2, ridge=1e-4)
        with pytest.raises(ValueError):
            rls.update(factor, np.array([np.nan, 0.0]), 1.0)
        with pytest.raises(ValueError):
            rls.update(factor, np.array([1.0, 0.0]), np.inf)

    def test_lse_monotone(self):
        rng = np.random.default_rng(0)
        factor = rls.init(3, ridge=1e-4)
        prev = 0.0
        for _ in range(500):
            lse = rls.update(factor, rng.normal(size=3), rng.normal())
            assert lse >= prev - 1e-15
            prev = lse

    def test_factor_stays_triangular_and_nonsingular(self):
        rng = np.random.default_rng(1)
        factor = rls.init(4, ridge=1e-4)
        for _ in range(10000):
            rls.update(factor, rng.normal(size=4), rng.normal())
        np.testing.assert_array_equal(factor, np.triu(factor))
        assert np.all(np.diag(factor)[:4] != 0.0)


def with_zero_rows(A, y, count, rng):
    """A and y with count zero rows, each with a nonzero target, inserted at
    random places."""
    at = rng.integers(0, A.shape[0] + 1, size=count)
    return (np.insert(A, at, 0.0, axis=0),
            np.insert(y, at, rng.normal(size=count) + 2.0))


def absorb(A, y, ridge):
    """Fit rows A and targets y one rls.update at a time: (factor, lse)."""
    factor = rls.init(A.shape[1], ridge)
    for g, t in zip(A, y):
        lse = rls.update(factor, g, t)
    return factor, lse


class TestOracleEquivalence:
    def test_random_instances_match_direct_solve(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(1, 6))
            rows = int(rng.integers(dim + 1, 201))
            A, y = with_zero_rows(rng.normal(size=(rows, dim)),
                                  rng.normal(size=rows),
                                  int(rng.integers(1, 6)), rng)
            factor, lse_rls = absorb(A, y, 1e-8)
            x, lse = rls.solve_direct(A, y, ridge=1e-8)
            np.testing.assert_allclose(rls.estimate(factor), x, rtol=1e-8,
                                       atol=1e-10)
            assert lse_rls == pytest.approx(lse, rel=1e-8, abs=1e-10)


@st.composite
def instances(draw):
    """Random (rows, targets, ridge): dim 1-5, dim+1 to 60 rows and 0 to 3
    zero rows, row scale 1e-3 to 1e3, ridge 1e-10 to 1."""
    dim = draw(st.integers(1, 5))
    n_rows = draw(st.integers(dim + 1, 60))
    zeros = draw(st.integers(0, 3))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    ridge = 10.0 ** draw(st.floats(-10.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (*with_zero_rows(scale * rng.normal(size=(n_rows, dim)),
                            rng.normal(size=n_rows), zeros, rng), ridge)


PROPERTY = settings(max_examples=60)


class TestProperties:
    @PROPERTY
    @given(instances())
    def test_update_matches_direct_solve(self, instance):
        A, y, ridge = instance
        factor, lse_rls = absorb(A, y, ridge)
        x, lse = rls.solve_direct(A, y, ridge)
        np.testing.assert_allclose(rls.estimate(factor), x, rtol=1e-8,
                                   atol=1e-12 * np.linalg.norm(x))
        assert lse_rls == pytest.approx(lse, rel=1e-8)

    @PROPERTY
    @given(instances(), st.integers(1, 4))
    def test_update_batch_matches_sequential(self, instance, n_fits):
        A, y, ridge = instance
        # every fit sees all rows, each in a different order
        rows = np.stack([np.roll(A, h, axis=0) for h in range(n_fits)])
        targets = np.stack([np.roll(y, h) for h in range(n_fits)])
        factors = np.stack([rls.init(A.shape[1], ridge)
                            for _ in range(n_fits)])
        lse = rls.update_batch(factors, rows, targets)
        estimates = rls.estimate(factors)
        for h in range(n_fits):
            factor, lse_seq = absorb(rows[h], targets[h], ridge)
            x = rls.estimate(factor)
            np.testing.assert_allclose(estimates[h], x, rtol=1e-8,
                                       atol=1e-12 * np.linalg.norm(x))
            assert lse[h] == pytest.approx(lse_seq, rel=1e-8)


class TestSolveDirect:
    def test_mean_of_two_points(self):
        x, lse = rls.solve_direct([[1.0], [1.0]], [1.0, 3.0], ridge=1e-12)
        assert x[0] == pytest.approx(2.0, abs=1e-9)
        assert lse == pytest.approx(2.0, abs=1e-9)

    def test_needs_rows(self):
        with pytest.raises(ValueError):
            rls.solve_direct(np.empty((0, 2)), [], ridge=1e-8)


def stacked_qr(factors, rows, targets):
    """The update spelled out: R of the old factors stacked on the new rows."""
    data = np.concatenate([rows, targets[:, :, None]], axis=2)
    return np.linalg.qr(np.concatenate([factors, data], axis=1), mode="r")


class TestUpdateBatch:
    def test_matches_sequential_updates(self):
        rng = np.random.default_rng(5)
        H, R, dim = 7, 4, 3
        rows = rng.normal(size=(H, R, dim))
        targets = rng.normal(size=(H, R))
        factors = np.stack([rls.init(dim, ridge=1e-4) for _ in range(H)])
        lse = rls.update_batch(factors, rows, targets)
        estimates = rls.estimate(factors)
        for h in range(H):
            factor, lse_seq = absorb(rows[h], targets[h], 1e-4)
            # QR fixes the R factor only up to the sign of each row
            np.testing.assert_allclose(np.abs(factors[h]), np.abs(factor),
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(estimates[h], rls.estimate(factor),
                                       rtol=1e-12)
            assert lse[h] == pytest.approx(lse_seq, rel=1e-12, abs=1e-15)

    def test_updates_a_slice_in_place(self):
        rng = np.random.default_rng(6)
        factors = np.stack([rls.init(2, ridge=1e-4) for _ in range(5)])
        untouched = factors[3:].copy()
        lse = rls.update_batch(factors[:3], rng.normal(size=(3, 2, 2)),
                               rng.normal(size=(3, 2)))
        np.testing.assert_array_equal(lse, factors[:3, 2, 2] ** 2)
        assert np.all(lse > 0.0)
        np.testing.assert_array_equal(factors[3:], untouched)

    def test_bit_exact_against_stacked_qr(self):
        rng = np.random.default_rng(8)
        for dim in range(1, 6):
            bank = np.stack([rls.init(dim, ridge=1e-4) for _ in range(7)])
            factors = bank[:6]
            spare = bank[6].copy()
            for step in range(4):
                rows = rng.normal(size=(6, dim + 1, dim)) \
                    * 10.0 ** rng.uniform(-3, 3, size=(6, 1, 1))
                rows[step] = 0.0                  # a fit that sees no data
                rows[:, step % (dim + 1)] *= rng.random((6, 1)) < 0.5
                targets = rng.normal(size=(6, dim + 1))
                want = stacked_qr(factors, rows, targets)
                lse = rls.update_batch(factors, rows, targets)
                assert np.array_equal(bank[:6], want)
                assert np.array_equal(lse, want[:, dim, dim] ** 2)
                below = np.tril_indices(dim + 1, -1)
                lower = bank[:, below[0], below[1]]
                assert np.all(lower == 0.0) and not np.signbit(lower).any()
            assert np.array_equal(bank[6], spare)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rls.update_batch(rls.init(2, 1e-4)[None],
                             np.zeros((2, 1, 2)), np.zeros((2, 1)))
