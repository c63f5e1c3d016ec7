"""A Hadoop-style MapReduce job across containers (Fig. 3 "Hadoop").

The job runs on a set of worker containers: input splits are read from
each mapper's SD card, map tasks burn container CPU, intermediate data
shuffles all-to-all across the fabric (the classic incast/elephant-mix
that stresses DC networks), and reducers burn CPU before writing output.

Phase timings come out of the underlying models, not parameters: slow SD
cards stretch the read phase, CPU contention stretches map/reduce, and
rack-locality of the workers decides how much shuffle crosses the
aggregation layer -- experiment C7's knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import PiCloudError
from repro.sim.process import AllOf, Signal
from repro.telemetry.series import Counter
from repro.units import mib
from repro.virt.container import Container

SHUFFLE_PORT = 7000
# Map/reduce computational intensity: cycles per input byte.  ~10 cy/B on
# a 700 MHz ARM11 gives the paper's "compute-lite" workload profile.
DEFAULT_MAP_CYCLES_PER_BYTE = 10.0
DEFAULT_REDUCE_CYCLES_PER_BYTE = 8.0
# Intermediate (shuffled) bytes per input byte.
INTERMEDIATE_RATIO = 0.5


@dataclass
class MapReduceReport:
    """What one job did, per phase."""

    input_bytes: int
    splits: int
    mappers: int
    reducers: int
    read_s: float = 0.0
    map_s: float = 0.0
    shuffle_s: float = 0.0
    reduce_s: float = 0.0
    total_s: float = 0.0
    shuffle_bytes: float = 0.0
    cross_host_shuffle_bytes: float = 0.0

    @property
    def phases(self) -> dict[str, float]:
        return {
            "read": self.read_s,
            "map": self.map_s,
            "shuffle": self.shuffle_s,
            "reduce": self.reduce_s,
        }


class MapReduceJob:
    """One job: coordinator logic over worker containers."""

    def __init__(
        self,
        workers: Sequence[Container],
        input_bytes: int,
        reducers: Optional[int] = None,
        split_bytes: int = mib(8),
        shuffle_port: int = SHUFFLE_PORT,
    ) -> None:
        if not workers:
            raise PiCloudError("a MapReduce job needs at least one worker")
        if any(not w.is_running for w in workers):
            raise PiCloudError("all MapReduce workers must be running containers")
        if input_bytes <= 0 or split_bytes <= 0:
            raise PiCloudError("input and split sizes must be positive")
        self.workers = list(workers)
        self.sim = self.workers[0].runtime.sim
        self.input_bytes = input_bytes
        self.split_bytes = split_bytes
        self.reducer_count = min(reducers or len(self.workers), len(self.workers))
        self.shuffle_port = shuffle_port
        self.bytes_shuffled = Counter(self.sim, "mr.shuffled")

    def run(self) -> Signal:
        """Execute the job; Signal -> :class:`MapReduceReport`."""
        return self.sim.process(self._run(), name="mapreduce.job")

    # -- the job pipeline ---------------------------------------------------------

    def _splits(self) -> List[int]:
        full, rest = divmod(self.input_bytes, self.split_bytes)
        sizes = [self.split_bytes] * int(full)
        if rest:
            sizes.append(int(rest))
        return sizes

    def _run(self):
        start = self.sim.now
        report = MapReduceReport(
            input_bytes=self.input_bytes,
            splits=len(self._splits()),
            mappers=len(self.workers),
            reducers=self.reducer_count,
        )
        reducers = self.workers[: self.reducer_count]
        inboxes = [r.listen(self.shuffle_port) for r in reducers]
        try:
            # --- read phase: each mapper reads its splits from SD ---------
            phase_start = self.sim.now
            reads = []
            assignments: List[List[int]] = [[] for _ in self.workers]
            for index, size in enumerate(self._splits()):
                assignments[index % len(self.workers)].append(size)
            for worker, sizes in zip(self.workers, assignments):
                storage = worker.runtime.kernel.machine.storage
                for size in sizes:
                    reads.append(storage.read(size))
            if reads:
                yield AllOf(self.sim, reads)
            report.read_s = self.sim.now - phase_start

            # --- map phase: CPU inside each worker container --------------
            phase_start = self.sim.now
            maps = []
            for worker, sizes in zip(self.workers, assignments):
                volume = sum(sizes)
                if volume > 0:
                    maps.append(worker.execute(
                        volume * DEFAULT_MAP_CYCLES_PER_BYTE, name="map-task"
                    ))
            if maps:
                yield AllOf(self.sim, maps)
            report.map_s = self.sim.now - phase_start

            # --- shuffle: all-to-all intermediate transfer ----------------
            phase_start = self.sim.now
            transfers = []
            for worker, sizes in zip(self.workers, assignments):
                intermediate = sum(sizes) * INTERMEDIATE_RATIO
                if intermediate <= 0:
                    continue
                portion = intermediate / self.reducer_count
                for reducer in reducers:
                    report.shuffle_bytes += portion
                    if reducer is worker:
                        continue  # local partition: no network
                    if reducer.host_id != worker.host_id:
                        report.cross_host_shuffle_bytes += portion
                    transfers.append(worker.send(
                        reducer.ip, self.shuffle_port,
                        {"from": worker.name}, size=int(portion),
                        tag="mr-shuffle",
                    ))
                    self.bytes_shuffled.add(portion)
            if transfers:
                yield AllOf(self.sim, transfers)
            report.shuffle_s = self.sim.now - phase_start

            # --- reduce phase ---------------------------------------------
            phase_start = self.sim.now
            reduce_volume = (
                self.input_bytes * INTERMEDIATE_RATIO / self.reducer_count
            )
            reduces = [
                reducer.execute(
                    reduce_volume * DEFAULT_REDUCE_CYCLES_PER_BYTE, name="reduce-task"
                )
                for reducer in reducers
            ]
            yield AllOf(self.sim, reduces)
            report.reduce_s = self.sim.now - phase_start

            report.total_s = self.sim.now - start
            return report
        except Exception as exc:  # noqa: BLE001 - job failure surfaces
            raise PiCloudError(f"MapReduce job failed: {exc}") from exc
        finally:
            for reducer in reducers:
                if reducer.is_running and reducer.ip is not None:
                    reducer.runtime.kernel.netstack.close(
                        self.shuffle_port, ip=reducer.ip
                    )
