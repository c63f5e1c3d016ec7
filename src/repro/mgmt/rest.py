"""A RESTful RPC framework over the simulated message sockets.

Requests and responses are JSON-shaped dicts; message sizes on the wire
are estimated from the JSON encoding plus protocol overhead, so chatty
management traffic has a real (if small) footprint on the fabric.

Handlers are registered per ``(method, path-pattern)``; patterns may
contain ``{param}`` segments.  A handler can be:

* a plain function ``handler(request, **params) -> (status, body)``; or
* a generator (simulation process) yielding waitables and returning
  ``(status, body)`` -- for handlers that do timed work (CPU, disk, ...).

The server charges ``DEFAULT_REQUEST_CPU_CYCLES`` to its host per request,
modelling REST parsing/serialisation cost on a 700 MHz ARM.
"""

from __future__ import annotations

import inspect
import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Optional, Tuple

from repro import trace
from repro.errors import RestError
from repro.hardware.machine import Machine
from repro.hostos.kernelhost import HostKernel
from repro.hostos.netstack import Message, NetStack
from repro.sim.process import AnyOf, Signal, Timeout
from repro.trace.span import SpanContext
from repro.units import mcycles

PROTOCOL_OVERHEAD_BYTES = 256  # headers, framing
DEFAULT_REQUEST_CPU_CYCLES = mcycles(2)  # ~3 ms on a 700 MHz ARM11


def body_size(body: Any) -> int:
    """Wire size of a JSON body (deterministic, encoding-based)."""
    if body is None:
        return PROTOCOL_OVERHEAD_BYTES
    return PROTOCOL_OVERHEAD_BYTES + len(json.dumps(body, sort_keys=True))


@dataclass
class RestRequest:
    method: str
    path: str
    body: Any = None
    # Filled by the server from the path pattern:
    params: Dict[str, str] = field(default_factory=dict)
    # Override: pretend the body is this many bytes on the wire (used for
    # image pushes, where the body *represents* a rootfs blob).
    wire_size: Optional[int] = None
    # Causal trace propagation (repro.trace).  ``trace`` is the caller's
    # span context, set by RestClient; ``server_trace`` is the serving
    # span's context, set by RestServer before the handler runs so
    # handler-side work can parent its own spans correctly.
    trace: Optional[SpanContext] = None
    server_trace: Optional[SpanContext] = None

    @property
    def size(self) -> int:
        return self.wire_size if self.wire_size is not None else body_size(
            {"m": self.method, "p": self.path, "b": self.body}
        )


@dataclass
class RestResponse:
    status: int
    body: Any = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def size(self) -> int:
        return body_size({"s": self.status, "b": self.body})

    def raise_for_status(self) -> "RestResponse":
        if not self.ok:
            raise RestError(self.status, str(self.body))
        return self


_PARAM_RE = re.compile(r"\{(\w+)\}")


@lru_cache(maxsize=None)
def _compile(pattern: str) -> re.Pattern:
    # Every node daemon registers the same route table, so compile each
    # pattern once per process instead of once per daemon at boot.
    regex = _PARAM_RE.sub(r"(?P<\1>[^/]+)", pattern.rstrip("/") or "/")
    return re.compile(f"^{regex}$")


class RestServer:
    """Serves REST requests arriving on one (ip, port)."""

    def __init__(
        self,
        kernel: HostKernel,
        port: int,
        name: str = "",
        ip: Optional[str] = None,
    ) -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self.port = port
        self.name = name or f"{kernel.node_id}:{port}"
        self._routes: list[Tuple[str, re.Pattern, Callable]] = []
        self.requests_served = 0
        self.requests_failed = 0
        self._inbox = kernel.netstack.listen(port, ip=ip)
        self._stopped = False
        self._process = self.sim.process(self._serve(), name=f"rest:{self.name}")

    # -- route registration ---------------------------------------------------

    def route(self, method: str, pattern: str) -> Callable:
        """Decorator: ``@server.route("GET", "/containers/{name}")``."""

        def register(handler: Callable) -> Callable:
            self._routes.append((method.upper(), _compile(pattern), handler))
            return handler

        return register

    def add_route(self, method: str, pattern: str, handler: Callable) -> None:
        self._routes.append((method.upper(), _compile(pattern), handler))

    def _match(self, method: str, path: str) -> Optional[Tuple[Callable, Dict[str, str]]]:
        method = method.upper()
        target = path.rstrip("/") or "/"
        for route_method, regex, handler in self._routes:
            if route_method != method:
                continue
            match = regex.match(target)
            if match is not None:
                return handler, match.groupdict()
        return None

    # -- the serving loop ----------------------------------------------------------

    def stop(self) -> None:
        self._stopped = True
        self.kernel.netstack.close(self.port)
        self._process.interrupt("server stopped")

    def _serve(self):
        while not self._stopped:
            message: Message = yield self._inbox.get()
            # Each request is handled in its own process so a slow handler
            # does not head-of-line block the daemon.
            self.sim.process(
                self._handle(message), name=f"rest:{self.name}:req"
            )

    def _handle(self, message: Message):
        request: RestRequest = message.payload
        span = trace.start_span(
            self.sim, f"rest.server {request.method} {request.path}",
            parent=request.trace, kind="rest.server",
            attributes={"server": self.name},
        )
        request.server_trace = span.context
        yield self.kernel.submit(
            DEFAULT_REQUEST_CPU_CYCLES, name=f"rest:{self.name}"
        )
        matched = self._match(request.method, request.path)
        if matched is None:
            response = RestResponse(404, {"error": f"no route {request.method} {request.path}"})
        else:
            handler, params = matched
            request.params = params
            try:
                result = handler(request, **params)
                if inspect.isgenerator(result):
                    result = yield self.sim.process(result, name=f"rest:{self.name}:h")
                status, body = result
                response = RestResponse(status, body)
            except RestError as exc:
                response = RestResponse(exc.status, {"error": exc.message, **exc.extra})
            except Exception as exc:  # noqa: BLE001 - 500 like a real server
                response = RestResponse(500, {"error": f"{type(exc).__name__}: {exc}"})
        if not response.ok:
            self.requests_failed += 1
        self.requests_served += 1
        span.set_attribute("status", response.status)
        span.end("ok" if response.ok else "error")
        yield self.kernel.netstack.reply(message, response, size=response.size,
                                         parent=span)


class RestClient:
    """Issues REST requests from one host; blocks the calling process.

    ``host`` ties the client to its machine: while that machine is not on,
    every request fails at once with ``RestError(0, ...)`` -- a dead host
    sends nothing.  Without it the client is always able to send.
    """

    def __init__(self, netstack: NetStack, timeout_s: float = 30.0,
                 host: Optional[Machine] = None) -> None:
        self.netstack = netstack
        self.sim = netstack.sim
        self.timeout_s = timeout_s
        self.host = host
        self.requests_sent = 0

    def request(
        self,
        method: str,
        dst_ip: str,
        dst_port: int,
        path: str,
        body: Any = None,
        wire_size: Optional[int] = None,
        src_ip: Optional[str] = None,
        parent=None,
    ) -> Signal:
        """Send a request; the Signal succeeds with a :class:`RestResponse`.

        Fails with :class:`~repro.errors.RestError` (status 0) on timeout,
        network errors (connection refused, no route) or a powered-down
        ``host``.  ``parent`` (a span or span context) threads causal
        tracing through the call: the request carries this client span's
        context so the serving side's spans nest under it.
        """
        span = trace.start_span(
            self.sim, f"rest.client {method.upper()} {path}",
            parent=parent, kind="rest.client",
            attributes={"dst": f"{dst_ip}:{dst_port}"},
        )
        request = RestRequest(method=method.upper(), path=path, body=body,
                              wire_size=wire_size, trace=span.context)
        self.requests_sent += 1

        def run():
            host = self.host
            if host is not None and not host.is_on:
                reason = f"host {host.machine_id} is {host.state.value}"
                span.end("error", reason)
                raise RestError(0, reason)
            reply_ip = src_ip or self.netstack.primary_ip
            reply_port = self.netstack.ephemeral_port()
            inbox = self.netstack.listen(reply_port, ip=reply_ip)
            try:
                try:
                    yield self.netstack.send(
                        dst_ip, dst_port, request, size=request.size,
                        src_ip=reply_ip, src_port=reply_port, parent=span,
                    )
                except Exception as exc:  # network-level failure
                    span.end("error", f"send failed: {exc}")
                    raise RestError(0, f"send failed: {exc}") from exc
                guard = Timeout(self.sim, self.timeout_s)
                winner, value = yield AnyOf(self.sim, [inbox.get(), guard])
                if winner == 1:
                    span.end("error", f"timeout after {self.timeout_s}s")
                    raise RestError(0, f"timeout after {self.timeout_s}s")
                guard.cancel()
                span.set_attribute("status", value.payload.status)
                span.end("ok")
                return value.payload
            finally:
                self.netstack.close(reply_port, ip=reply_ip)

        return self.sim.process(run(), name=f"rest-call:{method}:{path}")

    def get(self, dst_ip: str, dst_port: int, path: str, parent=None) -> Signal:
        return self.request("GET", dst_ip, dst_port, path, parent=parent)

    def post(self, dst_ip: str, dst_port: int, path: str, body: Any = None,
             wire_size: Optional[int] = None, parent=None) -> Signal:
        return self.request("POST", dst_ip, dst_port, path, body, wire_size,
                            parent=parent)

    def delete(self, dst_ip: str, dst_port: int, path: str, body: Any = None,
               parent=None) -> Signal:
        return self.request("DELETE", dst_ip, dst_port, path, body,
                            parent=parent)
