import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dopptrack import rls
from dopptrack.segmentation import (SegmentationState, admit_hypothesis,
                                    bellman_step, evict_if_full)
from oracles import batch_sls, line_fitter


def admit(state, n):
    """admit_hypothesis with unit Doppler and zero delay references, which
    no bank rule reads."""
    return admit_hypothesis(state, n, d_ref=1.0, tau=0.0)


def bank(candidates, keep_best=2, keep_recent=1):
    """A bank holding one candidate per (start, lse, e_admit), in this order."""
    state = SegmentationState(keep_best, keep_recent, dim=1, ridge=1e-4)
    for start, lse, e_admit in candidates:
        state.last_E = e_admit
        row = admit(state, start + 1)
        state.lse[row] = lse
    state.last_E = 0.0
    return state


def live_starts(state):
    return state.start[:state.filled].tolist()


class TestBellmanStep:
    def test_single_hypothesis(self):
        state = bank([(0, 0.5, 0.0)])
        E, best = bellman_step(state, penalty=0.01)
        assert E == pytest.approx(0.51)
        assert best == 0

    def test_picks_cheapest_total(self):
        state = bank([(0, 1.0, 0.0), (5, 0.2, 0.3)])
        E, best = bellman_step(state, penalty=0.01)
        assert E == pytest.approx(0.51)
        assert best == 5

    def test_tie_breaks_to_earliest_start(self):
        # both totals are exactly 0.875
        state = bank([(3, 0.25, 0.5), (7, 0.5, 0.25)])
        _, best = bellman_step(state, penalty=0.125)
        assert best == 3

    def test_tracks_previous_best(self):
        state = bank([(0, 0.0, 0.0)])
        bellman_step(state, penalty=0.01)
        state.last_E = -1.0
        admit(state, 5)
        bellman_step(state, penalty=0.01)
        assert state.prev_best_start == 0
        assert state.best_start == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bellman_step(SegmentationState(2, 1, dim=1, ridge=1e-4),
                         penalty=0.01)


class TestBankSize:
    def test_capacity_is_best_plus_recent(self):
        for keep_best, keep_recent in [(2, 1), (10, 20), (3, 1)]:
            state = SegmentationState(keep_best, keep_recent, dim=2,
                                      ridge=1e-4)
            capacity = keep_best + keep_recent
            assert state.capacity == capacity
            assert state.start.shape == (capacity,)
            assert state.factor.shape == (capacity, 3, 3)
            for n in range(1, capacity + 1):
                admit(state, n)
            with pytest.raises(ValueError):
                admit(state, capacity + 1)

    def test_sizes_below_minimum_rejected(self):
        for keep_best, keep_recent in [(0, 1), (2, 0), (-1, 5), (0, 0),
                                       (1, 1), (1, 3)]:
            with pytest.raises(ValueError):
                SegmentationState(keep_best, keep_recent, dim=1, ridge=1e-4)

    def test_sizes_are_integers(self):
        with pytest.raises(ValueError, match="keep_best must be an integer"):
            SegmentationState(2.5, 1, dim=1, ridge=1e-4)
        with pytest.raises(ValueError, match="keep_recent must be an integer"):
            SegmentationState(2, 2.0, dim=1, ridge=1e-4)
        state = SegmentationState(np.int64(2), np.int64(3), dim=1, ridge=1e-4)
        assert state.capacity == 5


class TestAdmit:
    def test_start_and_prefix_cost(self):
        state = SegmentationState(2, 1, dim=2, ridge=1e-4)
        row = admit_hypothesis(state, 1, d_ref=[1.0, 1.5], tau=[2e-3, 3e-3])
        assert row == 0
        assert state.start[row] == 0
        assert state.e_admit[row] == 0.0
        assert state.lse[row] == 0.0
        np.testing.assert_array_equal(state.factor[row],
                                      rls.init(2, 1e-4))
        np.testing.assert_array_equal(state.d_ref[row], [1.0, 1.5])
        np.testing.assert_array_equal(state.tau[row], [2e-3, 3e-3])
        assert state.filled == 1

    def test_admission_records_last_prefix_cost(self):
        state = SegmentationState(2, 1, dim=1, ridge=1e-4)
        admit(state, 1)
        state.lse[0] = 0.25
        bellman_step(state, penalty=0.01)
        row = admit(state, 2)
        assert state.start[row] == 1
        assert state.e_admit[row] == pytest.approx(0.26)

    def test_filled_increments(self):
        state = SegmentationState(3, 2, dim=1, ridge=1e-4)
        for n in range(1, 6):
            admit(state, n)
        assert state.filled == 5
        assert live_starts(state) == [0, 1, 2, 3, 4]

    def test_full_bank_and_stale_start_rejected(self):
        state = SegmentationState(2, 1, dim=1, ridge=1e-4)
        admit(state, 3)
        with pytest.raises(ValueError):
            admit(state, 3)
        admit(state, 4)
        admit(state, 5)
        with pytest.raises(ValueError):
            admit(state, 6)
        assert live_starts(state) == [2, 3, 4]


class TestEvict:
    def build(self, lses):
        return bank([(i, lse, 0.0) for i, lse in enumerate(lses)],
                    keep_best=2, keep_recent=1)

    def test_largest_lse_outside_recent_goes(self):
        state = self.build([5.0, 1.0, 0.1])
        gone = evict_if_full(state)
        assert gone == 0
        assert state.filled == 2
        assert state.lse[:2].tolist() == [1.0, 0.1]

    def test_below_capacity_is_noop(self):
        state = self.build([5.0, 1.0])
        assert evict_if_full(state) is None
        assert state.filled == 2

    def test_most_recent_always_survives(self):
        state = self.build([0.1, 0.2, 9.0])
        evict_if_full(state)
        assert 2 in live_starts(state)

    def test_protected_start_survives(self):
        state = self.build([9.0, 1.0, 0.1])
        state.anchor = 0
        gone = evict_if_full(state)
        assert gone == 1
        assert live_starts(state) == [0, 2]

    def test_oldest_of_equal_lse_goes(self):
        lses = [0.5, 2.0, 2.0, 0.1]
        state = bank([(i, lse, 0.0) for i, lse in enumerate(lses)],
                     keep_best=3, keep_recent=1)
        assert evict_if_full(state) == 1
        assert live_starts(state) == [0, 2, 3]

    def test_victim_row_shifted_out_of_every_column(self):
        state = SegmentationState(2, 2, dim=2, ridge=1e-4)
        for n in range(1, 5):
            row = admit_hypothesis(state, n, d_ref=[n, n], tau=[-n, -n])
            state.e_admit[row] = 10.0 * n
            state.lse[row] = 1.0 if n != 2 else 3.0
            state.factor[row] = n
        assert evict_if_full(state) == 1
        assert live_starts(state) == [0, 2, 3]
        assert state.e_admit[:3].tolist() == [10.0, 30.0, 40.0]
        assert state.lse[:3].tolist() == [1.0, 1.0, 1.0]
        assert state.factor[:3, 0, 0].tolist() == [1.0, 3.0, 4.0]
        assert state.d_ref[:3, 0].tolist() == [1.0, 3.0, 4.0]
        assert state.tau[:3, 1].tolist() == [-1.0, -3.0, -4.0]


class _Candidate:
    def __init__(self, start, e_admit):
        self.start = start
        self.e_admit = e_admit
        self.lse = 0.0


class ListBank:
    """Reference candidate memory: a list in admission order, with the
    policy written out item by item."""

    def __init__(self, n_best, n_recent):
        self.n_best = n_best
        self.n_recent = n_recent
        self.items = []
        self.last_E = 0.0

    def admit(self, n):
        self.items.append(_Candidate(n - 1, self.last_E))

    def evict(self, protect_start):
        if len(self.items) < self.n_best + self.n_recent:
            return None
        pool = [h for h in self.items[:-self.n_recent]
                if h.start != protect_start]
        victim = pool[0]
        for h in pool[1:]:
            if h.lse > victim.lse:
                victim = h
        self.items.remove(victim)
        return victim.start

    def bellman(self, penalty):
        costs = [h.lse + penalty + h.e_admit for h in self.items]
        best_cost = min(costs)
        best_start = min(h.start for h, c in zip(self.items, costs)
                         if c == best_cost)
        self.last_E = best_cost
        return best_cost, best_start


TIE_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0])


class TestBankMatchesListReference:
    @settings(max_examples=100)
    @given(st.integers(2, 5), st.integers(1, 5), st.data())
    def test_random_admit_evict_bellman_sequences(self, n_best, n_recent,
                                                  data):
        state = SegmentationState(n_best, n_recent, dim=1, ridge=1e-4)
        ref = ListBank(n_best, n_recent)
        n = 0
        for _ in range(data.draw(st.integers(1, 40))):
            n += data.draw(st.integers(1, 3))
            if state.filled and data.draw(st.booleans()):
                state.anchor = data.draw(st.one_of(
                    st.none(), st.integers(0, state.filled - 1)))
                protect = None if state.anchor is None \
                    else int(state.start[state.anchor])
                recent = live_starts(state)[-n_recent:]
                assert evict_if_full(state) == ref.evict(protect)
                assert set(recent) <= set(live_starts(state))
                if protect is not None:
                    assert state.start[state.anchor] == protect
            if state.filled < state.capacity and data.draw(st.booleans()):
                if data.draw(st.booleans()):
                    state.last_E = ref.last_E = data.draw(TIE_VALUES)
                admit(state, n)
                ref.admit(n)
            assert state.filled <= n_best + n_recent
            assert live_starts(state) == [h.start for h in ref.items]
            assert state.e_admit[:state.filled].tolist() == \
                [h.e_admit for h in ref.items]
            for row, h in enumerate(ref.items):
                h.lse = state.lse[row] = data.draw(TIE_VALUES)
            if state.filled:
                assert bellman_step(state, 0.25) == ref.bellman(0.25)
                assert state.start[state.best_row] == state.best_start


class TestBatchSls:
    def test_linear_data_single_segment(self):
        y = 0.7 * np.arange(40) + 2.0
        segments, prefix = batch_sls(y, penalty=0.5,
                                     segment_fitter=line_fitter(y))
        assert segments == [(0, 39)]
        assert prefix[-1] == pytest.approx(0.5, abs=1e-9)

    def test_huge_penalty_forces_single_segment(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=30)
        segments, _ = batch_sls(y, penalty=1e12,
                                segment_fitter=line_fitter(y))
        assert segments == [(0, 29)]

    def test_single_observation_is_one_segment(self):
        segments, prefix = batch_sls([1.0], penalty=0.1,
                                     segment_fitter=lambda a, b: 0.0)
        assert segments == [(0, 0)]
        assert prefix.tolist() == [0.0, 0.1]

    def test_needs_an_observation(self):
        with pytest.raises(ValueError):
            batch_sls([], penalty=0.1, segment_fitter=lambda a, b: 0.0)
