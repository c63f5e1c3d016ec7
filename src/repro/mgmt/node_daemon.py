"""The per-Pi API daemon: the node-side half of the management plane.

"There is an API daemon on each Pi providing a RESTful management
interface for facilitating virtual host management and interacting with a
head node (the pimaster)" (§II-A).  The daemon wraps the host's LXC
runtime behind REST routes:

====== =============================== ==========================================
Method Path                            Action
====== =============================== ==========================================
GET    /health                         liveness probe
GET    /metrics                        CPU load, memory, container count, watts
GET    /containers                     list containers (Fig. 4 table rows)
POST   /images                         receive an image push (body = rootfs)
POST   /containers                     create + start a container
POST   /containers/{name}/stop         stop
POST   /containers/{name}/start        start a stopped container
POST   /containers/{name}/freeze       freeze
POST   /containers/{name}/unfreeze     unfreeze
POST   /containers/{name}/limits       adjust soft resource limits (Fig. 4)
POST   /containers/{name}/migrate      live-migrate to a peer node
DELETE /containers/{name}              stop if needed + destroy
====== =============================== ==========================================
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Optional, Tuple

from repro.errors import DeadlineExceeded, PiCloudError, RestError
from repro.hostos.kernelhost import HostKernel
from repro.mgmt.images import cache_path
from repro.mgmt.rest import RestClient, RestRequest, RestServer
from repro.sim.process import AnyOf, Signal, Timeout
from repro.virt.container import ContainerState
from repro.virt.image import ContainerImage
from repro.virt.lxc import LxcRuntime
from repro.virt.migration import live_migrate

NODE_DAEMON_PORT = 8600


class NodeDaemon:
    """One Pi's management agent: REST façade over its LXC runtime."""

    def __init__(
        self,
        kernel: HostKernel,
        runtime: Optional[LxcRuntime] = None,
        port: int = NODE_DAEMON_PORT,
        peer_resolver: Optional[Callable[[str], "NodeDaemon"]] = None,
        op_deadline_s: Optional[float] = None,
    ) -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self.runtime = runtime or LxcRuntime(kernel)
        # peer_resolver("pi-r1-n3") -> that node's daemon; installed by the
        # pimaster so migrations can find their destination runtime.
        self.peer_resolver = peer_resolver
        # Watchdog for timed lifecycle work (create/start/migrate): the
        # guarded operation fails with HTTP 504 after this many simulated
        # seconds instead of blocking the daemon forever.
        self.op_deadline_s = op_deadline_s
        self.deadline_trips = 0
        self._images: Dict[str, ContainerImage] = {}
        # Idempotency for mutating routes: a completed result per key, plus
        # an in-flight Signal so a retry that overlaps the original attempt
        # waits for it instead of re-running the work.  Results are kept
        # for the daemon's lifetime (keys are unique per pimaster call, so
        # the map grows with real operations, not retries).
        self._idem_results: Dict[str, Tuple[int, object]] = {}
        self._idem_inflight: Dict[str, Signal] = {}
        self.idempotent_replays = 0
        # Fencing: highest epoch ever seen per container name.  Creates
        # and epoch-stamped destroys below the recorded epoch are stale
        # (issued before a partition by a pimaster that has since moved
        # on) and are rejected with 409.  Populated only when the
        # pimaster runs with fencing on; never pruned -- the whole point
        # is to remember epochs across a container's destruction.
        self._container_epochs: Dict[str, int] = {}
        self.stale_epoch_rejections = 0
        self.server = RestServer(kernel, port, name=f"daemon:{kernel.node_id}")
        self._register_routes()

    def _idempotent(self, key: Optional[str], work: Callable):
        """Run ``work()`` at most once per idempotency key.

        A generator helper.  ``work`` returns either a plain
        ``(status, body)`` or a generator producing one.  With no key the
        work simply runs; with a key, a finished result is replayed
        verbatim, and a retry racing the original attempt waits on its
        in-flight signal.  Failures are NOT cached -- a later retry after
        an error re-runs the work.
        """
        if key is None:
            result = work()
            if inspect.isgenerator(result):
                result = yield from result
            return result
        cached = self._idem_results.get(key)
        if cached is not None:
            self.idempotent_replays += 1
            return cached
        pending = self._idem_inflight.get(key)
        if pending is not None:
            self.idempotent_replays += 1
            result = yield pending
            return result
        signal = Signal(self.sim, name=f"idem:{key}")
        self._idem_inflight[key] = signal
        try:
            result = work()
            if inspect.isgenerator(result):
                result = yield from result
        except BaseException as exc:
            self._idem_inflight.pop(key, None)
            signal.fail(exc)
            raise
        self._idem_results[key] = result
        self._idem_inflight.pop(key, None)
        signal.succeed(result)
        return result

    def _guarded(self, waitable, what: str, parent=None):
        """Wait on ``waitable`` with the daemon's operation deadline.

        A generator helper (``yield from self._guarded(...)``): returns the
        waitable's value, or raises :class:`DeadlineExceeded` once
        ``op_deadline_s`` simulated seconds pass without completion.
        ``parent`` (the serving span's context) stamps the deadline error
        with its ``trace_id`` so 504s are correlatable with their trace.
        """
        if self.op_deadline_s is None:
            result = yield waitable
            return result
        guard = Timeout(self.sim, self.op_deadline_s)
        try:
            winner, value = yield AnyOf(self.sim, [waitable, guard])
        finally:
            guard.cancel()
        if winner == 1:
            self.deadline_trips += 1
            raise DeadlineExceeded(
                f"{what} on {self.node_id} exceeded the "
                f"{self.op_deadline_s}s operation deadline",
                deadline_s=self.op_deadline_s,
                trace_id=getattr(parent, "trace_id", None),
            )
        return value

    @staticmethod
    def _trace_504(exc: DeadlineExceeded) -> RestError:
        """A 504 response carrying the timed-out operation's trace id."""
        extra = {"trace_id": exc.trace_id} if exc.trace_id is not None else None
        return RestError(504, str(exc), extra=extra)

    @property
    def node_id(self) -> str:
        return self.kernel.node_id

    # -- local image cache --------------------------------------------------------

    def has_image(self, qualified_name: str) -> bool:
        return qualified_name in self._images

    # -- route handlers --------------------------------------------------------------

    def _register_routes(self) -> None:
        server = self.server
        server.add_route("GET", "/health", self._health)
        server.add_route("GET", "/metrics", self._metrics)
        server.add_route("POST", "/probe", self._probe_peer)
        server.add_route("GET", "/containers", self._list_containers)
        server.add_route("POST", "/images", self._receive_image)
        server.add_route("POST", "/containers", self._create_container)
        server.add_route("POST", "/containers/{name}/stop", self._stop)
        server.add_route("POST", "/containers/{name}/start", self._start)
        server.add_route("POST", "/containers/{name}/freeze", self._freeze)
        server.add_route("POST", "/containers/{name}/unfreeze", self._unfreeze)
        server.add_route("POST", "/containers/{name}/limits", self._limits)
        server.add_route("POST", "/containers/{name}/migrate", self._migrate)
        server.add_route("POST", "/containers/{name}/rebind", self._rebind)
        server.add_route("DELETE", "/containers/{name}", self._destroy)

    def _health(self, request: RestRequest):
        return 200, {"status": "ok", "node": self.node_id, "time": self.sim.now}

    def _probe_peer(self, request: RestRequest):
        """Witness probe: can *this* node reach the given daemon?

        The gen-2 failure detector asks alive peers to corroborate an
        UNREACHABLE verdict before declaring a node DEAD.  The answer is
        from this node's vantage point on the fabric, so a node on the
        pimaster's far side of a partition answers "reachable" for its
        partition-mates.
        """
        body = request.body or {}
        target_ip = body.get("ip")
        if target_ip is None:
            raise RestError(400, "missing field 'ip'")
        port = body.get("port", NODE_DAEMON_PORT)
        client = RestClient(self.kernel.netstack, timeout_s=2.0)
        reachable = False
        try:
            response = yield client.get(target_ip, port, "/health")
            reachable = response.ok
        except Exception:  # noqa: BLE001 - unreachable from here too
            reachable = False
        return 200, {"witness": self.node_id, "ip": target_ip,
                     "reachable": reachable}

    def _metrics(self, request: RestRequest):
        machine = self.kernel.machine
        return 200, {
            "node": self.node_id,
            "cpu_load": self.kernel.cpu_load(),
            "mem_used": machine.memory.used,
            "mem_capacity": machine.memory.capacity,
            "disk_used": machine.storage.used,
            "disk_capacity": machine.storage.capacity,
            "containers_running": self.runtime.running_count(),
            "containers_total": len(self.runtime.containers()),
            "watts": machine.power.current_watts,
        }

    def _list_containers(self, request: RestRequest):
        rows = []
        for container in self.runtime.containers():
            row = container.describe()
            # Fencing epoch, only for containers spawned with one -- the
            # wire format is unchanged for unfenced deployments.
            epoch = self._container_epochs.get(container.name)
            if epoch is not None:
                row["epoch"] = epoch
            rows.append(row)
        return 200, rows

    def _receive_image(self, request: RestRequest):
        body = request.body or {}
        try:
            image = ContainerImage(
                name=body["name"],
                version=body["version"],
                rootfs_bytes=body["size"],
                idle_memory_bytes=body.get("idle_memory", 30 * 1024 * 1024),
                app_class=body.get("app_class", "generic"),
            )
        except (KeyError, PiCloudError) as exc:
            raise RestError(400, f"bad image descriptor: {exc}") from exc
        path = cache_path(image)
        if self.kernel.filesystem.exists(path):
            self._images[image.qualified_name] = image
            return 200, {"cached": True}
        # Write the received rootfs to the SD card (timed).
        yield self.kernel.filesystem.write(
            path, image.rootfs_bytes, metadata={"image": image.qualified_name}
        )
        self._images[image.qualified_name] = image
        return 201, {"cached": False, "image": image.qualified_name}

    def _create_container(self, request: RestRequest):
        body = request.body or {}
        for key in ("name", "image"):
            if key not in body:
                raise RestError(400, f"missing field {key!r}")
        ctx = request.server_trace or request.trace
        result = yield from self._idempotent(
            body.get("idempotency_key"),
            lambda: self._create_container_work(body, ctx),
        )
        return result

    def _check_epoch(self, name: str, epoch: Optional[int], op: str) -> None:
        """Fencing gate: reject ops stamped with an epoch we've outgrown."""
        if epoch is None:
            return
        current = self._container_epochs.get(name)
        if current is not None and epoch < current:
            self.stale_epoch_rejections += 1
            raise RestError(
                409,
                f"stale fencing epoch {epoch} for {name!r} on "
                f"{self.node_id} (current epoch {current}); {op} rejected",
            )

    def _create_container_work(self, body: dict, ctx):
        name = body["name"]
        epoch = body.get("epoch")
        self._check_epoch(name, epoch, "create")
        if epoch is not None:
            current = self._container_epochs.get(name)
            if current is not None and epoch > current:
                # A newer-epoch create supersedes any copy this node still
                # runs -- e.g. a stale replica that survived behind a healed
                # partition while the pimaster respawned the name elsewhere
                # and then placed it back here.  Newest epoch wins: the old
                # incarnation is destroyed before the new one is created.
                try:
                    stale = self.runtime.container(name)
                except PiCloudError:
                    stale = None
                if stale is not None:
                    if stale.state in (ContainerState.RUNNING,
                                       ContainerState.FROZEN):
                        self.runtime.lxc_stop(stale)
                    self.runtime.lxc_destroy(stale)
        image = self._images.get(body["image"])
        if image is None:
            raise RestError(409, f"image {body['image']!r} not cached on {self.node_id}")
        create = self.runtime.lxc_create(
            body["name"],
            image,
            cpu_shares=body.get("cpu_shares", 1024),
            cpu_quota=body.get("cpu_quota"),
            memory_limit_bytes=body.get("memory_limit_bytes"),
            parent=ctx,
        )
        try:
            container = yield from self._guarded(create, "container create",
                                                 parent=ctx)
        except DeadlineExceeded as exc:
            raise self._trace_504(exc) from exc
        except Exception as exc:
            raise RestError(409, f"create failed: {exc}") from exc
        if body.get("start", True):
            try:
                yield from self._guarded(
                    self.runtime.lxc_start(container, ip=body.get("ip"),
                                           parent=ctx),
                    "container start",
                    parent=ctx,
                )
            except DeadlineExceeded as exc:
                self.runtime.lxc_destroy(container)
                raise self._trace_504(exc) from exc
            except Exception as exc:
                self.runtime.lxc_destroy(container)
                raise RestError(507, f"start failed: {exc}") from exc
        if epoch is not None:
            self._container_epochs[name] = epoch
        return 201, container.describe()

    def _container_or_404(self, name: str):
        try:
            return self.runtime.container(name)
        except PiCloudError as exc:
            raise RestError(404, str(exc)) from exc

    def _stop(self, request: RestRequest, name: str):
        container = self._container_or_404(name)
        try:
            self.runtime.lxc_stop(container)
        except PiCloudError as exc:
            raise RestError(409, str(exc)) from exc
        return 200, container.describe()

    def _start(self, request: RestRequest, name: str):
        container = self._container_or_404(name)
        body = request.body or {}
        ctx = request.server_trace or request.trace
        try:
            yield from self._guarded(
                self.runtime.lxc_start(container, ip=body.get("ip"), parent=ctx),
                "container start",
                parent=ctx,
            )
        except DeadlineExceeded as exc:
            raise self._trace_504(exc) from exc
        except Exception as exc:
            raise RestError(409, f"start failed: {exc}") from exc
        return 200, container.describe()

    def _freeze(self, request: RestRequest, name: str):
        container = self._container_or_404(name)
        try:
            self.runtime.lxc_freeze(container)
        except PiCloudError as exc:
            raise RestError(409, str(exc)) from exc
        return 200, container.describe()

    def _unfreeze(self, request: RestRequest, name: str):
        container = self._container_or_404(name)
        try:
            self.runtime.lxc_unfreeze(container)
        except PiCloudError as exc:
            raise RestError(409, str(exc)) from exc
        return 200, container.describe()

    def _limits(self, request: RestRequest, name: str):
        """The Fig. 4 'soft per-VM resource utilisation limits' endpoint."""
        container = self._container_or_404(name)
        body = request.body or {}
        try:
            if "cpu_shares" in body:
                container.cgroup.set_cpu_shares(body["cpu_shares"])
            if "cpu_quota" in body:
                container.cgroup.set_cpu_quota(body["cpu_quota"])
            if "memory_limit_bytes" in body:
                container.cgroup.set_memory_limit(body["memory_limit_bytes"])
            if "net_rate_cap" in body:
                container.set_network_cap(body["net_rate_cap"])
        except (ValueError, PiCloudError) as exc:
            raise RestError(400, str(exc)) from exc
        self.kernel.scheduler.notify_change()
        return 200, container.describe()

    def _migrate(self, request: RestRequest, name: str):
        container = self._container_or_404(name)
        body = request.body or {}
        destination_id = body.get("destination")
        if destination_id is None:
            raise RestError(400, "missing field 'destination'")
        if self.peer_resolver is None:
            raise RestError(501, "node has no peer resolver configured")
        try:
            peer = self.peer_resolver(destination_id)
        except KeyError:
            raise RestError(404, f"unknown destination node {destination_id!r}") from None
        ctx = request.server_trace or request.trace
        try:
            report = yield from self._guarded(
                live_migrate(container, peer.runtime, parent=ctx),
                "live migration",
                parent=ctx,
            )
        except DeadlineExceeded as exc:
            raise self._trace_504(exc) from exc
        except Exception as exc:
            raise RestError(409, f"migration failed: {exc}") from exc
        return 200, {
            "container": report.container,
            "source": report.source,
            "destination": report.destination,
            "rounds": report.rounds,
            "total_bytes": report.total_bytes,
            "downtime_s": report.downtime_s,
            "duration_s": report.duration_s,
            "converged": report.converged,
        }

    def _rebind(self, request: RestRequest, name: str):
        """Re-address a running container (subnet-bound IP after migration).

        Unbinds the current address and binds the supplied one.  Used by
        the pimaster's ``reassign_ip`` migration mode -- the IP-full
        baseline of the §III IP-less routing study.
        """
        container = self._container_or_404(name)
        body = request.body or {}
        new_ip = body.get("ip")
        if new_ip is None:
            raise RestError(400, "missing field 'ip'")
        if not container.is_running:
            raise RestError(409, f"container {name!r} is not running")
        stack = self.kernel.netstack
        old_ip = container.ip
        try:
            if old_ip is not None:
                stack.unbind_address(old_ip)
            stack.bind_address(new_ip)
        except Exception as exc:
            raise RestError(409, f"rebind failed: {exc}") from exc
        if old_ip is not None:
            stack.rekey_listeners(old_ip, new_ip)
            stack.set_rate_cap(old_ip, None)
        if container.net_rate_cap is not None:
            stack.set_rate_cap(new_ip, container.net_rate_cap)
        container.ip = new_ip
        return 200, {"name": name, "old_ip": old_ip, "ip": new_ip}

    def _destroy(self, request: RestRequest, name: str):
        body = request.body or {}
        result = yield from self._idempotent(
            body.get("idempotency_key"),
            lambda: self._destroy_work(name, body.get("epoch")),
        )
        return result

    def _destroy_work(self, name: str, epoch: Optional[int] = None):
        # An epoch-stamped destroy must not kill a *newer* incarnation
        # (a stale destroy retry from before a partition); destroys
        # without an epoch are unfenced (legacy / operator-driven) and
        # always allowed.
        self._check_epoch(name, epoch, "destroy")
        container = self._container_or_404(name)
        if container.state in (ContainerState.RUNNING, ContainerState.FROZEN):
            self.runtime.lxc_stop(container)
        self.runtime.lxc_destroy(container)
        return 200, {"destroyed": name}
