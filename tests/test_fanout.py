import pytest

from dopptrack import fanout


# one process, as many shares as items, and more CPUs than items
@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_split_keeps_order_and_puts_the_largest_share_first(monkeypatch,
                                                            cpus):
    monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
    for n in range(12):
        for floor in (1, 100, 250):
            shares = fanout.split(range(n), 100 * n, floor)
            assert [i for share in shares for i in share] == list(range(n))
            assert len(shares) == max(1, min(cpus, n, 100 * n // floor))
            first = len(shares[0])
            assert all(first - 1 <= len(share) <= first for share in shares)
