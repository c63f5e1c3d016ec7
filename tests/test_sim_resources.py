"""Unit tests for Resource and Store (repro.sim.resources)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator, Store, Timeout


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_immediate_acquire_below_capacity(self, sim):
        res = Resource(sim, capacity=2)
        assert res.acquire().triggered
        assert res.acquire().triggered
        assert res.in_use == 2
        assert res.available == 0

    def test_acquire_blocks_at_capacity(self, sim):
        res = Resource(sim, capacity=1)
        res.acquire()
        waiter = res.acquire()
        assert not waiter.triggered

    def test_release_wakes_fifo(self, sim):
        res = Resource(sim, capacity=1)
        res.acquire()
        first = res.acquire()
        second = res.acquire()
        res.release()
        assert first.triggered and not second.triggered
        res.release()
        assert second.triggered

    def test_release_idle_rejected(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim).release()

    def test_mutex_serialises_processes(self, sim):
        res = Resource(sim, capacity=1)
        spans = []

        def worker(tag, hold):
            yield res.acquire()
            start = sim.now
            yield Timeout(sim, hold)
            res.release()
            spans.append((tag, start, sim.now))

        sim.process(worker("a", 2.0))
        sim.process(worker("b", 3.0))
        sim.run()
        spans.sort(key=lambda s: s[1])
        # The second holder starts exactly when the first releases.
        assert spans[0][2] == spans[1][1]


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = store.get()
        assert got.triggered and got.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = store.get()
        assert not got.triggered
        store.put("later")
        assert got.value == "later"

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        for item in ("a", "b", "c"):
            store.put(item)
        assert [store.get().value for _ in range(3)] == ["a", "b", "c"]

    def test_waiting_getters_served_fifo(self, sim):
        store = Store(sim)
        first, second = store.get(), store.get()
        store.put(1)
        store.put(2)
        assert first.value == 1 and second.value == 2

    def test_bounded_put_blocks_when_full(self, sim):
        store = Store(sim, capacity=1)
        store.put("a")
        blocked = store.put("b")
        assert not blocked.triggered
        store.get()
        assert blocked.triggered
        assert len(store) == 1

    def test_try_get_on_empty(self, sim):
        ok, item = Store(sim).try_get()
        assert ok is False and item is None

    def test_try_get_returns_item(self, sim):
        store = Store(sim)
        store.put("x")
        ok, item = store.try_get()
        assert ok is True and item == "x"

    def test_capacity_validation(self, sim):
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)

    def test_producer_consumer_pipeline(self, sim):
        store = Store(sim, capacity=2)
        consumed = []

        def producer():
            for i in range(5):
                yield store.put(i)
                yield Timeout(sim, 0.1)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                consumed.append((sim.now, item))
                yield Timeout(sim, 1.0)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert [item for _, item in consumed] == [0, 1, 2, 3, 4]


class TestRng:
    def test_same_seed_same_stream(self):
        from repro.sim import RngRegistry

        a = RngRegistry(seed=7).stream("traffic")
        b = RngRegistry(seed=7).stream("traffic")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_independent(self):
        from repro.sim import RngRegistry

        reg = RngRegistry(seed=7)
        a = [reg.stream("a").random() for _ in range(5)]
        b = [reg.stream("b").random() for _ in range(5)]
        assert a != b

    def test_different_seeds_differ(self):
        from repro.sim import RngRegistry

        a = RngRegistry(seed=1).stream("x").random()
        b = RngRegistry(seed=2).stream("x").random()
        assert a != b

    def test_stream_is_cached(self):
        from repro.sim import RngRegistry

        reg = RngRegistry()
        assert reg.stream("x") is reg.stream("x")

    def test_fork_is_deterministic(self):
        from repro.sim import RngRegistry

        a = RngRegistry(seed=3).fork("rep1").stream("s").random()
        b = RngRegistry(seed=3).fork("rep1").stream("s").random()
        c = RngRegistry(seed=3).fork("rep2").stream("s").random()
        assert a == b != c
