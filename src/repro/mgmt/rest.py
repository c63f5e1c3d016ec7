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

An exchange is not a process.  A client call is its own completion
signal, and each step of it -- start, request sent, reply or timeout --
is a kernel callback bound to the call.  A server serves each message
with a small exchange object whose callbacks take the CPU charge, the
handler's result and the reply in turn; only a generator handler runs
as a process of its own.  Each step starts with a zero-delay event, or
with ``add_done_callback`` on the signal a process would have yielded,
so the kernel runs the events, in the order, that a process per call,
per request and per server would (``docs/performance.md``, "REST
exchanges without processes").  Their labels in budget snapshots carry
the call's or the exchange's name, e.g.
``_Call._start[rest-call:GET:/metrics]``.
"""

from __future__ import annotations

import inspect
import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Optional, Tuple

from repro import trace
from repro.errors import AddressError, NetworkError, RestError
from repro.hardware.machine import Machine
from repro.hostos.kernelhost import HostKernel
from repro.hostos.netstack import Message, NetStack
from repro.sim.kernel import Event
from repro.sim.process import Signal
from repro.trace.span import SpanContext
from repro.units import mcycles

PROTOCOL_OVERHEAD_BYTES = 256  # headers, framing
DEFAULT_REQUEST_CPU_CYCLES = mcycles(2)  # ~3 ms on a 700 MHz ARM11


def body_size(body: Any) -> int:
    """Wire size of a JSON body (deterministic, encoding-based)."""
    if body is None:
        return PROTOCOL_OVERHEAD_BYTES
    return PROTOCOL_OVERHEAD_BYTES + len(json.dumps(body, sort_keys=True))


@lru_cache(maxsize=4096)
def _bodyless_size(method: str, path: str) -> int:
    # Monitoring polls and heartbeats are body-less GETs of a few paths:
    # encode each (method, path) once, not once per request.
    return body_size({"m": method, "p": path, "b": None})


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
        if self.wire_size is not None:
            return self.wire_size
        if self.body is None:
            return _bodyless_size(self.method, self.path)
        return body_size({"m": self.method, "p": self.path, "b": self.body})


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


def _error_response(exc: Exception) -> RestResponse:
    """What a handler's exception becomes on the wire."""
    if isinstance(exc, RestError):
        return RestResponse(exc.status, {"error": exc.message, **exc.extra})
    return RestResponse(500, {"error": f"{type(exc).__name__}: {exc}"})


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
        # Set by the event stop() queues; a later stop() queues none.
        self._halted = False
        # The inbox get the server waits on (None once stopped).
        self._getter: Optional[Signal] = None
        self.sim.schedule(0.0, self._start)

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

    # -- serving ----------------------------------------------------------------

    def stop(self) -> None:
        self._stopped = True
        self.kernel.netstack.close(self.port)
        if self._halted:
            return
        getter, self._getter = self._getter, None
        if getter is not None and not getter._triggered:
            getter.discard_callback(self._on_message)
        # A triggered getter's wakeup is already queued; _on_message
        # ignores it now that it is no longer the server's getter.
        self.sim.schedule(0.0, self._halt)

    def _halt(self) -> None:
        self._halted = True

    def _start(self) -> None:
        if not self._stopped:
            self._listen()

    def _listen(self) -> None:
        getter = self._getter = self._inbox.get()
        getter.add_done_callback(self._on_message)

    def _on_message(self, getter: Signal) -> None:
        if getter is not self._getter:
            return  # stop() came between the message and this wakeup
        # Each request is served on its own so a slow handler does not
        # head-of-line block the daemon.
        self.sim.schedule(0.0, _Exchange(self, getter._value)._start)
        if not self._stopped:
            self._listen()


class _Exchange:
    """Serves one request message: the CPU charge, the handler, the reply.

    Each method is one kernel callback; a generator handler runs as a
    process of its own between :meth:`_parsed` and :meth:`_handled`.
    """

    __slots__ = ("server", "message", "span")

    def __init__(self, server: RestServer, message: Message) -> None:
        self.server = server
        self.message = message
        self.span = None

    @property
    def name(self) -> str:
        return f"rest:{self.server.name}:req"

    def _start(self) -> None:
        server = self.server
        request: RestRequest = self.message.payload
        span = self.span = trace.start_span(
            server.sim, f"rest.server {request.method} {request.path}",
            parent=request.trace, kind="rest.server",
            attributes={"server": server.name},
        )
        request.server_trace = span.context
        server.kernel.submit(
            DEFAULT_REQUEST_CPU_CYCLES, name=f"rest:{server.name}"
        ).add_done_callback(self._parsed)

    def _parsed(self, task: Signal) -> None:
        if task._exc is not None:
            return  # the CPU work was cancelled: no reply
        server = self.server
        request: RestRequest = self.message.payload
        matched = server._match(request.method, request.path)
        if matched is None:
            self._respond(RestResponse(
                404, {"error": f"no route {request.method} {request.path}"}))
            return
        handler, params = matched
        request.params = params
        try:
            result = handler(request, **params)
            if inspect.isgenerator(result):
                server.sim.process(
                    result, name=f"rest:{server.name}:h"
                ).add_done_callback(self._handled)
                return
            status, body = result
            response = RestResponse(status, body)
        except Exception as exc:  # noqa: BLE001 - 500 like a real server
            response = _error_response(exc)
        self._respond(response)

    def _handled(self, process: Signal) -> None:
        exc = process._exc
        if exc is None:
            try:
                status, body = process._value
                response = RestResponse(status, body)
            except Exception as error:  # noqa: BLE001 - malformed result
                response = _error_response(error)
        elif isinstance(exc, Exception):
            response = _error_response(exc)
        else:
            return  # not a handler error: no reply
        self._respond(response)

    def _respond(self, response: RestResponse) -> None:
        server = self.server
        if not response.ok:
            server.requests_failed += 1
        server.requests_served += 1
        span = self.span
        span.set_attribute("status", response.status)
        span.end("ok" if response.ok else "error")
        server.kernel.netstack.reply(
            self.message, response, size=response.size, parent=span,
        ).add_done_callback(self._replied)

    def _replied(self, sent: Signal) -> None:
        """The reply is delivered or refused: the exchange is over.

        Waiting on the reply is the exchange's last step, so a reply
        refused at once (the client timed out) still costs the one
        queued event that every wait on a triggered signal costs.
        """


class _Call(Signal):
    """One client request: its own completion signal.

    Succeeds with the :class:`RestResponse`, or fails with
    :class:`RestError` (status 0) on a timeout, a network error or a
    powered-down client host.
    """

    __slots__ = ("client", "span", "_reply_ip", "_reply_port", "_inbox",
                 "_guard")

    def __init__(self, client: "RestClient", span, name: str) -> None:
        super().__init__(client.sim, name=name)
        self.client = client
        self.span = span
        self._reply_ip: Optional[str] = None
        self._reply_port = 0
        self._inbox = None
        self._guard: Optional[Event] = None

    def _start(self, request: RestRequest, dst_ip: str, dst_port: int,
               src_ip: Optional[str]) -> None:
        """First event: open the reply port and send the request."""
        host = self.client.host
        if host is not None and not host.is_on:
            reason = f"host {host.machine_id} is {host.state.value}"
            self.span.end("error", reason)
            self.fail(RestError(0, reason))
            return
        netstack = self.client.netstack
        try:
            reply_ip = src_ip or netstack.primary_ip
            reply_port = netstack.ephemeral_port()
            self._inbox = netstack.listen(reply_port, ip=reply_ip)
        except AddressError as exc:  # no address to reply to
            self.fail(exc.with_traceback(None))
            return
        self._reply_ip = reply_ip
        self._reply_port = reply_port
        try:
            sent = netstack.send(
                dst_ip, dst_port, request, size=request.size,
                src_ip=reply_ip, src_port=reply_port, parent=self.span,
            )
        except NetworkError as exc:
            self._send_failed(exc.with_traceback(None))
            return
        sent.add_done_callback(self._sent)

    def _sent(self, sent: Signal) -> None:
        """The request is delivered: arm the guard, wait for the reply."""
        # The inbox's getter will hold the call; the call must not hold
        # the inbox, or the two would form a cycle.
        inbox, self._inbox = self._inbox, None
        if sent._exc is not None:
            self._send_failed(sent._exc)
            return
        self._guard = self.sim.schedule(self.client.timeout_s,
                                        self._timed_out)
        inbox.get().add_done_callback(self._replied)

    def _send_failed(self, exc: Exception) -> None:
        self.span.end("error", f"send failed: {exc}")
        self._close()
        error = RestError(0, f"send failed: {exc}")
        error.__cause__ = exc
        self.fail(error)

    def _replied(self, got: Signal) -> None:
        if self._triggered:
            return  # the guard won
        self._guard.cancel()
        self._guard = None
        response = got._value.payload
        span = self.span
        span.set_attribute("status", response.status)
        span.end("ok")
        self._close()
        self.succeed(response)

    def _timed_out(self) -> None:
        self._guard = None
        reason = f"timeout after {self.client.timeout_s}s"
        self.span.end("error", reason)
        self._close()
        self.fail(RestError(0, reason))

    def _close(self) -> None:
        self.client.netstack.close(self._reply_port, ip=self._reply_ip)


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
        call = _Call(self, span, name=f"rest-call:{method}:{path}")
        self.sim.schedule(0.0, call._start, request, dst_ip, dst_port, src_ip)
        return call

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
