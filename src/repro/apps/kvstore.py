"""A key-value database container (the Fig. 3 "Database" box).

GETs cost CPU; PUTs cost CPU plus a persistence write to the host's SD
card (inside the container's rootfs directory) and grow the container's
RSS through its cgroup -- so a write-heavy tenant physically squeezes
its co-tenants, the exact interference a cohabiting cloud exhibits.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.errors import PiCloudError
from repro.hostos.netstack import Message, NetStack
from repro.sim.process import AllOf, Signal, Timeout
from repro.telemetry.series import Counter, TimeSeries
from repro.units import kib, mcycles, mib
from repro.virt.container import Container, ContainerState

KV_PORT = 6379
GET_CYCLES = mcycles(1)
PUT_CYCLES = mcycles(2)
# RSS growth per stored byte (index + cache overhead), capped below.
MEMORY_PER_VALUE_BYTE = 0.1


class KeyValueStoreApp:
    """GET/PUT store with persistence and memory pressure."""

    def __init__(
        self,
        container: Container,
        port: int = KV_PORT,
        memory_cap_bytes: int = mib(20),
        persist: bool = True,
    ) -> None:
        if not container.is_running:
            raise PiCloudError(
                f"container {container.name!r} must be running to serve KV"
            )
        self.container = container
        self.sim = container.runtime.sim
        self.port = port
        self.memory_cap_bytes = memory_cap_bytes
        self.persist = persist
        self._store: Dict[str, int] = {}  # key -> value size
        self._memory_grown = 0
        self._data_file = f"{container.rootfs_path}.data"
        self.gets = Counter(self.sim, f"{container.name}.kv.gets")
        self.puts = Counter(self.sim, f"{container.name}.kv.puts")
        self.misses = Counter(self.sim, f"{container.name}.kv.misses")
        self.op_latencies = TimeSeries(f"{container.name}.kv.latency")
        container.app = self
        self._inbox = container.listen(port)
        self._stopped = False
        self._process = self.sim.process(self._serve(), name=f"kv:{container.name}")

    @property
    def keys_stored(self) -> int:
        return len(self._store)

    def stop(self) -> None:
        self._stopped = True
        if self.container.state in (ContainerState.RUNNING, ContainerState.FROZEN):
            self.container.runtime.kernel.netstack.close(
                self.port, ip=self.container.ip
            )
        self._process.interrupt("kv stopped")

    def _serve(self):
        while not self._stopped:
            message: Message = yield self._inbox.get()
            self.sim.process(self._handle(message), name=f"kv:{self.container.name}:op")

    def _grow_memory(self, value_bytes: int) -> None:
        grow = int(value_bytes * MEMORY_PER_VALUE_BYTE)
        if grow <= 0 or self._memory_grown + grow > self.memory_cap_bytes:
            return
        try:
            self.container.grow_memory(grow)
            self._memory_grown += grow
        except Exception:
            pass  # cgroup/host full: run from disk only

    def _handle(self, message: Message):
        start = self.sim.now
        op = message.payload or {}
        kind = op.get("op")
        key = op.get("key", "")
        kernel = self.container.runtime.kernel
        if kind == "put":
            value_bytes = int(op.get("value_bytes", kib(1)))
            try:
                yield self.container.run(PUT_CYCLES, name="kv-put")
            except Exception:
                return
            if self.persist:
                fs = kernel.filesystem
                if not fs.exists(self._data_file):
                    fs.create(self._data_file, 0)
                try:
                    fs.truncate(self._data_file, fs.stat(self._data_file).size + value_bytes)
                    yield kernel.machine.storage.write(value_bytes)
                except Exception:
                    yield kernel.netstack.reply(
                        message, {"status": "error", "reason": "disk-full"}, size=128
                    )
                    return
            fresh_key = key not in self._store
            self._store[key] = value_bytes
            if fresh_key:
                self._grow_memory(value_bytes)
            self.puts.add()
            yield kernel.netstack.reply(message, {"status": "ok"}, size=128)
        elif kind == "get":
            try:
                yield self.container.run(GET_CYCLES, name="kv-get")
            except Exception:
                return
            size = self._store.get(key)
            if size is None:
                self.misses.add()
                yield kernel.netstack.reply(
                    message, {"status": "miss", "key": key}, size=128
                )
            else:
                self.gets.add()
                yield kernel.netstack.reply(
                    message, {"status": "ok", "key": key}, size=128 + size
                )
        else:
            yield kernel.netstack.reply(
                message, {"status": "error", "reason": f"bad op {kind!r}"}, size=128
            )
        self.op_latencies.record(self.sim.now, self.sim.now - start)


class KvClientApp:
    """A workload of GET/PUT operations against one store."""

    def __init__(
        self,
        netstack: NetStack,
        server_ip: str,
        server_port: int = KV_PORT,
        rng: Optional[random.Random] = None,
        get_fraction: float = 0.8,
        value_bytes: int = kib(4),
        keyspace: int = 1000,
        src_ip: Optional[str] = None,
    ) -> None:
        if not (0.0 <= get_fraction <= 1.0):
            raise ValueError("get_fraction must be in [0, 1]")
        self.netstack = netstack
        self.sim = netstack.sim
        self.server_ip = server_ip
        self.server_port = server_port
        self.rng = rng or random.Random(0)
        self.get_fraction = get_fraction
        self.value_bytes = value_bytes
        self.keyspace = keyspace
        self.src_ip = src_ip
        self.latencies = TimeSeries("kv.client.latency")
        self.errors = Counter(self.sim, "kv.client.errors")
        self.completed = Counter(self.sim, "kv.client.completed")

    def op(self) -> Signal:
        """One randomly-chosen operation; Signal -> response payload."""
        return self.sim.process(self._op(), name="kv.op")

    def _op(self):
        start = self.sim.now
        key = f"k{self.rng.randrange(self.keyspace)}"
        if self.rng.random() < self.get_fraction:
            payload = {"op": "get", "key": key}
            size = 128
        else:
            payload = {"op": "put", "key": key, "value_bytes": self.value_bytes}
            size = 128 + self.value_bytes
        reply_ip = self.src_ip or self.netstack.primary_ip
        port = self.netstack.ephemeral_port()
        inbox = self.netstack.listen(port, ip=reply_ip)
        try:
            try:
                yield self.netstack.send(
                    self.server_ip, self.server_port, payload, size=size,
                    src_ip=reply_ip, src_port=port, tag="kv-op",
                )
                response = yield inbox.get()
            except Exception as exc:
                self.errors.add()
                raise PiCloudError(str(exc)) from exc
            self.latencies.record(self.sim.now, self.sim.now - start)
            self.completed.add()
            return response.payload
        finally:
            self.netstack.close(port, ip=reply_ip)

    def run_closed_loop(self, workers: int, duration_s: float,
                        think_time_s: float = 0.05) -> Signal:
        deadline = self.sim.now + duration_s

        def worker():
            while self.sim.now < deadline:
                try:
                    yield self.op()
                except Exception:
                    pass
                if think_time_s > 0:
                    yield Timeout(self.sim, self.rng.expovariate(1.0 / think_time_s))

        processes = [self.sim.process(worker(), name="kv.worker") for _ in range(workers)]

        def waiter():
            yield AllOf(self.sim, processes)
            return {"completed": self.completed.total, "errors": self.errors.total}

        return self.sim.process(waiter(), name="kv.closed-loop")
