"""Open-loop latency is timed from each transaction's due time."""

import asyncio

import pytest

from hibench.jobs import LoadResult, normalize_latency, open_loop


class StubSystem:
    """Every transaction takes 50 ms of service; nothing else."""

    def __init__(self):
        self.order = []

    async def run_transaction_async(self, requestor, provider):
        self.order.append((requestor, provider))
        await asyncio.sleep(0.05)
        return object()


def test_latency_counts_the_wait_behind_a_busy_requestor():
    system = StubSystem()
    # Requestor 1 twice, 10 ms apart: the second waits for the first.
    pairs = [(1, 2), (1, 3), (4, 5)]
    result = asyncio.run(open_loop(system, pairs, rate_tps=100.0))
    first, second, other = result.latency_ms
    assert first == pytest.approx(50, abs=25)
    # due at 10 ms, starts at ~50 ms, done at ~100 ms -> ~90 ms from due.
    assert second == pytest.approx(90, abs=25)
    assert second > first + 20
    assert other == pytest.approx(50, abs=25)
    assert [p for p in system.order if p[0] == 1] == [(1, 2), (1, 3)]
    assert all(o is not None for o in result.outcomes)
    assert max(result.late_ms) < 25


def test_a_raising_transaction_is_lost_not_fatal():
    class Failing(StubSystem):
        async def run_transaction_async(self, requestor, provider):
            if provider == 3:
                raise RuntimeError("boom")
            return await super().run_transaction_async(requestor, provider)

    result = asyncio.run(open_loop(Failing(), [(1, 2), (1, 3)], rate_tps=100.0))
    assert result.outcomes[1] is None
    assert len(result.errors) == 1 and "boom" in result.errors[0]


def test_host_is_sampled_only_when_nothing_is_in_flight():
    # 50 ms of service every 100 ms: idle after each completion but the last.
    pairs = [(i, i + 1) for i in range(0, 10, 2)]
    result = asyncio.run(open_loop(StubSystem(), pairs, rate_tps=10.0))
    assert len(result.host) == len(pairs) - 1
    assert all(s > 0 for _, s in result.host)
    # Every 10 ms: the transactions overlap, and the loop is never idle.
    result = asyncio.run(open_loop(StubSystem(), pairs[:3], rate_tps=100.0))
    assert result.host == []


def test_latency_is_divided_by_the_host_slowdown_around_it():
    load = LoadResult(
        due_s=[0.0, 1.0],
        latency_ms=[100.0, 100.0],
        late_ms=[0.0, 0.0],
        outcomes=[object(), object()],
        errors=[],
        wall_s=1.1,
        # 2x slow around the first transaction, 4x around the second.
        host=[(0.0, 2.0), (0.1, 2.0), (1.0, 4.0), (1.1, 4.0)],
    )
    assert normalize_latency(load) == [50.0, 25.0]
