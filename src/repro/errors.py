"""Exception hierarchy for the PiCloud model.

All library-raised exceptions derive from :class:`PiCloudError` so callers
can catch the whole family with one clause while still discriminating on
the specific failure (out of memory, no route, placement failure, ...).
"""

from __future__ import annotations


class PiCloudError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(PiCloudError, ValueError):
    """An invalid configuration or parameter value.

    Also a ``ValueError``: call sites that historically raised bare
    ``ValueError`` (solver inputs, service intervals, autoscaler bounds)
    now raise this, and code catching ``ValueError`` keeps working.
    """


class SimulationError(PiCloudError):
    """Misuse of the discrete-event kernel (e.g. scheduling in the past)."""


class SimBudgetExceeded(SimulationError):
    """A simulation run blew through its run budget (events / sim time / wall clock).

    ``snapshot`` is a :class:`repro.sim.budget.BudgetSnapshot` with the
    diagnostic state at the moment the budget tripped: pending events,
    runnable processes, and the tail of recently executed events -- enough
    to find the component that stopped making progress.
    """

    def __init__(self, message: str, snapshot=None) -> None:
        super().__init__(message)
        self.snapshot = snapshot


class DeadlineExceeded(PiCloudError):
    """A guarded operation (container start/stop/migrate, REST call,
    experiment phase) did not complete within its deadline.

    ``trace_id`` links the failure to its causal trace when tracing is
    on (also surfaced in node-daemon 504 response bodies).
    """

    def __init__(self, message: str, deadline_s: float = 0.0,
                 attempts: int = 1, trace_id=None) -> None:
        super().__init__(message)
        self.deadline_s = deadline_s
        self.attempts = attempts
        self.trace_id = trace_id


class HardwareError(PiCloudError):
    """Base class for hardware-model failures."""


class OutOfMemoryError(HardwareError):
    """A memory allocation exceeded the machine's (or cgroup's) capacity."""


class StorageFullError(HardwareError):
    """A write exceeded the SD card / disk capacity."""


class PowerStateError(HardwareError):
    """Operation attempted on a machine in the wrong power state."""


class NetworkError(PiCloudError):
    """Base class for network-substrate failures."""


class NoRouteError(NetworkError):
    """No path exists between two endpoints in the current topology."""


class AddressError(NetworkError):
    """Address pool exhaustion, duplicate assignment, or parse failure."""


class ConnectionRefusedError(NetworkError):
    """No socket is listening on the destination (host, port)."""


class ConnectionResetError(NetworkError):
    """The peer closed or the host failed mid-transfer."""


class RateModelError(NetworkError, ValueError):
    """Congestion-control rate-model misuse.

    Raised by :mod:`repro.netsim.cc` for a non-positive flow RTT or for
    attaching a rate model to two fabrics; bad knobs are rejected by
    :class:`~repro.core.config.RateModelConfig` with
    :class:`ConfigurationError`.  Also a ``ValueError`` so call sites
    that historically caught ``ValueError`` keep working.
    """


class VirtualisationError(PiCloudError):
    """Base class for container / LXC layer failures."""


class ContainerStateError(VirtualisationError):
    """Lifecycle operation invalid for the container's current state."""


class ImageError(VirtualisationError):
    """Missing, corrupt, or oversized container image."""


class MigrationError(VirtualisationError):
    """Live migration could not complete (e.g. dirty rate exceeds bandwidth)."""


class ManagementError(PiCloudError):
    """Base class for management-plane failures."""


class RestError(ManagementError):
    """A REST call returned a non-success status.

    ``extra`` is merged into the error response body by the REST server,
    carrying structured fields (e.g. the ``trace_id`` of a timed-out
    operation) back to the caller.
    """

    def __init__(self, status: int, message: str = "", extra: dict = None) -> None:
        super().__init__(f"HTTP {status}: {message}" if message else f"HTTP {status}")
        self.status = status
        self.message = message
        self.extra = dict(extra) if extra else {}


class CircuitOpenError(ManagementError):
    """A management call was rejected fast because the target node's
    circuit breaker is open (too many consecutive transport failures).

    Carries ``node_id`` so callers can tell which breaker tripped.
    """

    def __init__(self, message: str, node_id: str = "") -> None:
        super().__init__(message)
        self.node_id = node_id


class LeaseError(ManagementError):
    """DHCP pool exhausted or lease conflict."""


class NameError_(ManagementError):
    """DNS name not found or already registered."""


class UnknownNodeError(ManagementError, KeyError):
    """A management-plane lookup named a node the pimaster does not know.

    Also a ``KeyError`` for backward compatibility with the registry's
    original mapping semantics.
    """


class FaultError(PiCloudError):
    """Base class for fault-injection misuse."""


class FaultTargetError(FaultError, ValueError):
    """A fault schedule names an unknown node or link (also ``ValueError``)."""


class FaultStateError(FaultError, RuntimeError):
    """Fault machinery used out of order, e.g. arming a schedule twice
    (also ``RuntimeError``)."""


class CampaignError(PiCloudError):
    """Experiment-campaign misuse: a malformed spec, an unknown scenario,
    an empty parameter grid, or a result store that cannot be read."""


class PlacementError(PiCloudError):
    """No node can satisfy a placement request under the active policy."""


class SchedulingError(PiCloudError):
    """Host CPU scheduler misuse (unknown task, negative work, ...)."""


class LoadError(PiCloudError):
    """The session-level load engine was misconfigured or could not run
    (no resolvable replicas for a service, unknown region map, ...)."""
