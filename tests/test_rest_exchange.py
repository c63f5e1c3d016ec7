"""A REST exchange (client call and server handling) as kernel events.

A REST call and the serving of each request are kernel callbacks bound
to the call and to a per-message exchange -- no process per call, per
request or per server.  These tests pin what they schedule: the kernel's
event count, a digest of every executed event's time, every call's
completion time (``float.hex``) and outcome, the server counters and a
digest of every span, recorded when calls, handlers and server loops
still ran as generator processes.  The scenario covers plain and
generator handlers, 404, 500, ``RestError``, a timeout, a refused send,
a powered-down client host, a handler whose CPU task is cancelled,
``stop()`` with a delivered message and a request in flight, a reply to
a client that has timed out, and a same-instant burst.
"""

import gc
import hashlib
import json
import re
import weakref

import pytest

from repro.errors import RestError
from repro.hardware import Machine, RASPBERRY_PI_MODEL_B
from repro.hostos import HostKernel, IpFabric
from repro.mgmt.rest import RestClient, RestRequest, RestServer, body_size
from repro.netsim import Network
from repro.netsim.topology import single_switch
from repro.sim import Simulator, Timeout
from repro.sim.budget import TRACE_LENGTH
from repro.trace import Tracer
from repro.units import mcycles


def _hex(value):
    return None if value is None else value.hex()


def _world(sim):
    topo = single_switch(["server", "client", "spare"], bandwidth=1e6,
                         latency=1e-3)
    fabric = IpFabric(sim, Network(sim, topo))
    kernels = {}
    for index, host in enumerate(("server", "client")):
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, host)
        machine.boot_immediately()
        kernel = HostKernel(sim, machine, fabric)
        kernel.netstack.bind_address(f"10.0.0.{index + 1}")
        kernels[host] = kernel
    return kernels


def _after_delivery(server, action):
    """Run ``action()`` inside the event that delivers the server's next
    message, right after the message lands in its inbox."""
    inbox = server._inbox
    put = inbox.put

    def deliver(message):
        done = put(message)
        del inbox.put
        action()
        return done

    inbox.put = deliver


def _exchange_storm(sim):
    """Set up, not run: every REST path, on one 1 MB/s switch with 1 ms
    links.  Returns the servers, the clients and the calls (each with
    its completion log)."""
    kernels = _world(sim)
    server = RestServer(kernels["server"], 8080, name="main")
    route = server.add_route

    def work(request):
        yield kernels["server"].submit(mcycles(5), name="work")
        return 201, {"got": request.body}

    def gen_boom(request):
        yield Timeout(sim, 0.01)
        raise ValueError("generator failed")

    def slow(request):
        yield Timeout(sim, 3.0)
        return 200, {"slow": True}

    def boom(request):
        raise RuntimeError("kaboom")

    def teapot(request):
        raise RestError(418, "short and stout", {"spout": 1})

    route("GET", "/ping", lambda request: (200, {"pong": True}))
    route("GET", "/items/{name}", lambda request, name: (200, {"name": name}))
    route("POST", "/work", work)
    route("GET", "/boom", boom)
    route("GET", "/teapot", teapot)
    route("GET", "/gen-boom", gen_boom)
    route("GET", "/slow", slow)
    route("GET", "/none", lambda request: None)

    # A server stopped while one request is in its handler and the next
    # has just been delivered, its handling not yet started.
    stopping = RestServer(kernels["server"], 8081, name="stopping")

    def hold(request):
        yield Timeout(sim, 2.0)
        return 200, {"held": request.path}

    stopping.add_route("GET", "/hold", hold)
    # A server stopped twice before its first event, and once more later.
    early = RestServer(kernels["server"], 8082, name="early")
    early.stop()
    early.stop()
    sim.schedule(1.0, early.stop)
    # A server whose CPU task for a request is cancelled mid-handling.
    fragile = RestServer(kernels["server"], 8083, name="fragile")
    fragile.add_route("GET", "/ping", lambda request: (200, {"pong": True}))

    def cancel_fragile_tasks():
        for task in list(kernels["server"].scheduler._tasks):
            if task.name == "rest:fragile":
                task.cancel()

    _after_delivery(fragile,
                    lambda: sim.schedule(0.001, cancel_fragile_tasks))

    netstack = kernels["client"].netstack
    client = RestClient(netstack)
    short = RestClient(netstack, timeout_s=1.0)
    dead = RestClient(netstack, host=Machine(sim, RASPBERRY_PI_MODEL_B,
                                              "spare"))
    calls = []
    completed = []

    def track(call):
        index = len(calls)
        calls.append(call)
        call.add_done_callback(
            lambda signal: completed.append((index, _hex(sim.now))))
        return call

    ip = "10.0.0.1"
    track(client.get(ip, 8080, "/ping"))
    track(client.get(ip, 8080, "/items/web-3"))
    track(client.post(ip, 8080, "/work", {"n": 1}))
    track(client.get(ip, 8080, "/nothing"))
    track(client.get(ip, 8080, "/boom"))
    track(client.get(ip, 8080, "/teapot"))
    track(client.get(ip, 8080, "/gen-boom"))
    track(client.get(ip, 8080, "/none"))
    track(client.get(ip, 9999, "/ping"))                 # refused
    track(client.get("10.9.9.9", 8080, "/ping"))         # no such address
    track(dead.get(ip, 8080, "/ping"))                   # host powered down
    track(short.get(ip, 8080, "/slow"))                  # times out
    track(short.get(ip, 8083, "/ping"))                  # CPU task cancelled
    track(client.delete(ip, 8080, "/ping"))              # method mismatch
    track(client.get(ip, 8081, "/hold"))                 # in flight at stop

    def second_hold():
        _after_delivery(stopping, lambda: (stopping.stop(), stopping.stop()))
        track(client.get(ip, 8081, "/hold"))

    sim.schedule(0.2, second_hold)
    sim.schedule(4.0, lambda: track(client.get(ip, 8081, "/hold")))

    def burst():
        for i in range(8):
            if i % 3 == 0:
                track(client.post(ip, 8080, "/work", {"i": i},
                                  wire_size=4000 - 300 * i))
            elif i % 3 == 1:
                track(client.get(ip, 8080, f"/items/b{i}"))
            else:
                track(client.get(ip, 8080, "/ping"))

    sim.schedule(0.5, burst)
    servers = [server, stopping, early, fragile]
    return servers, [client, short, dead], calls, completed


def _outcome(call):
    if call.exception is not None:
        return type(call.exception).__name__, str(call.exception)
    return call.value.status, json.dumps(call.value.body, sort_keys=True)


def _span_digest(tracer):
    rows = [(span.span_id, span.parent_id, span.trace_id, span.name,
             span.kind, _hex(span.start), _hex(span.end_time), span.status,
             span.status_detail, sorted(span.attributes.items()))
            for span in tracer.spans]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _record(sim, tracer, servers, clients, calls, completed):
    times = json.dumps([_hex(when) for when, _ in tracer.kernel_event_log])
    return {
        "events": sim.events_executed,
        "event_times": hashlib.sha256(times.encode()).hexdigest()[:16],
        "calls": [_outcome(call) for call in calls],
        "completed": completed,
        "served": [(s.requests_served, s.requests_failed) for s in servers],
        "sent": [client.requests_sent for client in clients],
        "spans": _span_digest(tracer),
    }


# Recorded when each REST call, request handler and server loop ran as a
# generator process.
_PIN = {
    "events": 313,
    "event_times": "15839e9971009c15",
    "calls": [
        (200, '{"pong": true}'),
        (200, '{"name": "web-3"}'),
        (201, '{"got": {"n": 1}}'),
        (404, '{"error": "no route GET /nothing"}'),
        (500, '{"error": "RuntimeError: kaboom"}'),
        (418, '{"error": "short and stout", "spout": 1}'),
        (500, '{"error": "ValueError: generator failed"}'),
        (500, '{"error": "TypeError: cannot unpack non-iterable NoneType '
              'object"}'),
        ("RestError",
         "HTTP 0: send failed: nothing listening on 10.0.0.1:9999"),
        ("RestError", "HTTP 0: send failed: no endpoint with IP 10.9.9.9"),
        ("RestError", "HTTP 0: host spare is off"),
        ("RestError", "HTTP 0: timeout after 1.0s"),
        ("RestError", "HTTP 0: timeout after 1.0s"),
        (404, '{"error": "no route DELETE /ping"}'),
        (200, '{"held": "/hold"}'),
        (200, '{"held": "/hold"}'),
        (201, '{"got": {"i": 0}}'),
        (200, '{"name": "b1"}'),
        (200, '{"pong": true}'),
        (201, '{"got": {"i": 3}}'),
        (200, '{"name": "b4"}'),
        (200, '{"pong": true}'),
        (201, '{"got": {"i": 6}}'),
        (200, '{"name": "b7"}'),
        ("RestError",
         "HTTP 0: send failed: nothing listening on 10.0.0.1:8081"),
    ],
    "completed": [
        (10, "0x0.0p+0"),
        (8, "0x0.0p+0"),
        (9, "0x0.0p+0"),
        (0, "0x1.4fe3dd0a3fa41p-5"),
        (1, "0x1.504ae08ebd09cp-5"),
        (4, "0x1.50bc430793a57p-5"),
        (3, "0x1.50edb1d80d2b3p-5"),
        (13, "0x1.50edb1d80d2b3p-5"),
        (5, "0x1.51031d98ca5cap-5"),
        (7, "0x1.513140c1c450fp-5"),
        (2, "0x1.7c9e470a0f21dp-5"),
        (6, "0x1.94374078aa87bp-5"),
        (18, "0x1.0d777a6c32f19p-1"),
        (21, "0x1.0d777a6c32f19p-1"),
        (17, "0x1.0d85a24d228b2p-1"),
        (20, "0x1.0d85a24d228b2p-1"),
        (23, "0x1.0d85a24d228b2p-1"),
        (22, "0x1.19b2a74a3d970p-1"),
        (19, "0x1.1a167497dd9a5p-1"),
        (16, "0x1.1a274ebc0707fp-1"),
        (11, "0x1.01697f1f9ad00p+0"),
        (12, "0x1.01697f1f9ad00p+0"),
        (14, "0x1.0507da96ed0cbp+1"),
        (15, "0x1.1a8d660ab978bp+1"),
        (24, "0x1.0000000000000p+2"),
    ],
    # main, stopping, early, fragile: (served, failed)
    "served": [(18, 6), (2, 0), (0, 0), (0, 0)],
    # client, short, dead
    "sent": [22, 2, 1],
    "spans": "69e292e0784a73f6",
}


def _traced_storm():
    sim = Simulator()
    tracer = Tracer(sim, kernel_events=True)
    return sim, tracer, _exchange_storm(sim)


class TestExchangePins:
    def test_storm_matches_process_per_exchange(self):
        sim, tracer, (servers, clients, calls, completed) = _traced_storm()
        sim.run()
        record = _record(sim, tracer, servers, clients, calls, completed)
        assert record == _PIN

    def test_same_instant_burst_completes_in_pinned_order(self):
        sim, tracer, (servers, clients, calls, completed) = _traced_storm()
        sim.run()
        # Calls 16-23 are issued in one event at t=0.5; ties complete in
        # the order their replies' events were queued.
        burst = [index for index, _ in completed if 16 <= index < 24]
        assert burst == [18, 21, 17, 20, 23, 22, 19, 16]
        assert calls[18].value.body == calls[21].value.body == {"pong": True}


_REST_PROCESS = re.compile(r"rest-call:.*|rest:[^:]*|rest:.*:req")


class TestNoExchangeProcess:
    def test_no_call_or_handler_is_a_live_process(self):
        sim = Simulator()
        servers, clients, calls, completed = _exchange_storm(sim)
        handlers_seen = 0
        while sim.peek() is not None:
            sim.run(max_events=1)
            names = [process.name for process in sim._live_processes]
            assert not [name for name in names
                        if _REST_PROCESS.fullmatch(name)]
            # Generator handlers (timed work) still run as processes.
            handlers_seen += sum(name.endswith(":h") for name in names)
        assert handlers_seen > 0
        assert len(completed) == len(calls)


class _Body(dict):
    """A reply body a weak reference can watch."""


class TestCancelledGuard:
    def test_finished_call_keeps_no_reply_alive(self):
        """The guard timeout of a finished call is cancelled but stays
        queued until it is popped; it must not keep the reply alive."""
        sim = Simulator()
        kernels = _world(sim)
        server = RestServer(kernels["server"], 8080)
        server.add_route("GET", "/body", lambda request: (200, _Body(x=1)))
        client = RestClient(kernels["client"].netstack)
        call = client.get("10.0.0.1", 8080, "/body")
        refs = []
        call.add_done_callback(
            lambda signal: refs.append(weakref.ref(signal.value.body)))
        # A live event queued before the guard's 30 s keeps it queued.
        sim.schedule(20.0, lambda: None)
        sim.run(until=1.0)
        assert call.ok and refs and refs[0]() is not None
        # Flush the recent-event ring, which holds the call's callbacks.
        for _ in range(TRACE_LENGTH):
            sim.schedule(0.0, lambda: None)
        sim.run(until=2.0)
        gc.disable()
        try:
            del call  # freed by reference counting, not the collector
            assert refs[0]() is None
        finally:
            gc.enable()
        assert sim.peek() == 20.0


class TestBodylessSize:
    @pytest.mark.parametrize("method", ["GET", "DELETE", "POST", "PUT"])
    @pytest.mark.parametrize("path", [
        "/metrics", "/health", "/containers/web-3", "/",
        "/quote\"and\\back", "/tab\there", "/café/文字",
        "/emoji/\U0001f967", "/ctl\x01",
    ])
    def test_memoized_size_matches_body_size(self, method, path):
        expected = body_size({"m": method, "p": path, "b": None})
        assert RestRequest(method, path).size == expected
        assert RestRequest(method, path).size == expected  # memoized

    def test_body_and_wire_size_still_count(self):
        assert RestRequest("POST", "/x", {"a": 1}).size == body_size(
            {"m": "POST", "p": "/x", "b": {"a": 1}})
        assert RestRequest("GET", "/x", wire_size=7).size == 7
