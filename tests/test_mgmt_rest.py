"""Unit tests for the REST framework, DHCP and DNS."""

import pytest

from repro.errors import AddressError, LeaseError, NameError_, RestError
from repro.hardware import Machine, RASPBERRY_PI_MODEL_B
from repro.hostos import HostKernel, IpFabric
from repro.mgmt import DhcpServer, DnsServer, RestClient, RestServer
from repro.mgmt import dhcp as dhcp_module, rest
from repro.mgmt.rest import body_size
from repro.netsim import Ipv4Pool, Network
from repro.netsim.topology import single_switch
from repro.sim import Simulator, Timeout


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def world(sim):
    topo = single_switch(["server", "client"], bandwidth=1e6, latency=0.0)
    network = Network(sim, topo)
    fabric = IpFabric(sim, network)
    kernels = {}
    for index, host in enumerate(("server", "client")):
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, host)
        machine.boot_immediately()
        kernel = HostKernel(sim, machine, fabric)
        kernel.netstack.bind_address(f"10.0.0.{index + 1}")
        kernels[host] = kernel
    return kernels


class TestRestServer:
    def test_plain_handler_roundtrip(self, sim, world):
        server = RestServer(world["server"], 8080)
        server.add_route("GET", "/ping", lambda req: (200, {"pong": True}))
        client = RestClient(world["client"].netstack)
        call = client.get("10.0.0.1", 8080, "/ping")
        sim.run()
        response = call.value
        assert response.status == 200
        assert response.body == {"pong": True}

    def test_path_parameters_extracted(self, sim, world):
        server = RestServer(world["server"], 8080)
        server.add_route(
            "GET", "/containers/{name}", lambda req, name: (200, {"name": name})
        )
        client = RestClient(world["client"].netstack)
        call = client.get("10.0.0.1", 8080, "/containers/web-3")
        sim.run()
        assert call.value.body == {"name": "web-3"}

    def test_unknown_route_404(self, sim, world):
        server = RestServer(world["server"], 8080)
        client = RestClient(world["client"].netstack)
        call = client.get("10.0.0.1", 8080, "/nothing")
        sim.run()
        assert call.value.status == 404
        with pytest.raises(RestError):
            call.value.raise_for_status()

    def test_handler_exception_becomes_500(self, sim, world):
        server = RestServer(world["server"], 8080)

        def broken(req):
            raise RuntimeError("kaboom")

        server.add_route("GET", "/broken", broken)
        client = RestClient(world["client"].netstack)
        call = client.get("10.0.0.1", 8080, "/broken")
        sim.run()
        assert call.value.status == 500
        assert "kaboom" in call.value.body["error"]

    def test_rest_error_maps_to_status(self, sim, world):
        server = RestServer(world["server"], 8080)

        def teapot(req):
            raise RestError(418, "short and stout")

        server.add_route("GET", "/teapot", teapot)
        client = RestClient(world["client"].netstack)
        call = client.get("10.0.0.1", 8080, "/teapot")
        sim.run()
        assert call.value.status == 418

    def test_generator_handler_does_timed_work(self, sim, world):
        server = RestServer(world["server"], 8080)

        def slow(req):
            yield Timeout(sim, 2.0)
            return 200, {"done_at": sim.now}

        server.add_route("GET", "/slow", slow)
        client = RestClient(world["client"].netstack)
        call = client.get("10.0.0.1", 8080, "/slow")
        sim.run()
        assert call.value.body["done_at"] >= 2.0

    def test_request_costs_server_cpu(self, sim, world, monkeypatch):
        cycles = RASPBERRY_PI_MODEL_B.cpu.clock_hz  # exactly 1s of CPU
        monkeypatch.setattr(rest, "DEFAULT_REQUEST_CPU_CYCLES", cycles)
        server = RestServer(world["server"], 8080)
        server.add_route("GET", "/x", lambda req: (200, None))
        client = RestClient(world["client"].netstack)
        call = client.get("10.0.0.1", 8080, "/x")
        sim.run()
        assert call.triggered
        assert sim.now >= 1.0

    def test_concurrent_requests_not_serialised(self, sim, world):
        server = RestServer(world["server"], 8080)

        def slow(req):
            yield Timeout(sim, 5.0)
            return 200, None

        server.add_route("GET", "/slow", slow)
        client = RestClient(world["client"].netstack)
        calls = [client.get("10.0.0.1", 8080, "/slow") for _ in range(3)]
        sim.run()
        # All three overlap: total time ~5s, not 15s.
        assert sim.now < 7.0
        assert all(c.value.status == 200 for c in calls)

    def test_timeout_fails_call(self, sim, world):
        # No server at all on that port.
        client = RestClient(world["client"].netstack, timeout_s=3.0)
        call = client.get("10.0.0.1", 9999, "/void")
        sim.run()
        assert isinstance(call.exception, RestError)

    def test_post_body_delivered(self, sim, world):
        server = RestServer(world["server"], 8080)
        server.add_route("POST", "/echo", lambda req: (200, req.body))
        client = RestClient(world["client"].netstack)
        call = client.post("10.0.0.1", 8080, "/echo", body={"k": [1, 2]})
        sim.run()
        assert call.value.body == {"k": [1, 2]}

    def test_wire_size_dominates_transfer_time(self, sim, world):
        """An image-push-sized body takes size/bandwidth to arrive."""
        server = RestServer(world["server"], 8080)
        server.add_route("POST", "/blob", lambda req: (201, None))
        client = RestClient(world["client"].netstack, timeout_s=1e6)
        call = client.post("10.0.0.1", 8080, "/blob", body=None, wire_size=5_000_000)
        sim.run()
        # 5 MB at 1 MB/s access link.
        assert sim.now == pytest.approx(5.0, rel=0.05)

    def test_stop_closes_port(self, sim, world):
        server = RestServer(world["server"], 8080)
        server.add_route("GET", "/x", lambda req: (200, None))
        server.stop()
        client = RestClient(world["client"].netstack, timeout_s=2.0)
        call = client.get("10.0.0.1", 8080, "/x")
        sim.run()
        assert not call.ok

    def test_served_counters(self, sim, world):
        server = RestServer(world["server"], 8080)
        server.add_route("GET", "/x", lambda req: (200, None))
        client = RestClient(world["client"].netstack)
        client.get("10.0.0.1", 8080, "/x")
        client.get("10.0.0.1", 8080, "/missing")
        sim.run()
        assert server.requests_served == 2
        assert server.requests_failed == 1

    def test_body_size_grows_with_content(self):
        assert body_size({"a": "x" * 100}) > body_size({"a": "x"})
        assert body_size(None) > 0


class TestDhcp:
    def test_grant_and_lookup(self, sim):
        dhcp = DhcpServer(sim, Ipv4Pool("10.1.0.0/24"))
        lease = dhcp.request_lease("c1", hostname="web")
        assert dhcp.lookup("c1").ip == lease.ip
        assert lease.hostname == "web"

    def test_repeat_request_renews(self, sim, monkeypatch):
        monkeypatch.setattr(dhcp_module, "DEFAULT_LEASE_TTL_S", 100.0)
        dhcp = DhcpServer(sim, Ipv4Pool("10.1.0.0/24"))
        first = dhcp.request_lease("c1")
        sim.run(until=50.0)
        second = dhcp.request_lease("c1")  # still active: renews in place
        assert second.ip == first.ip
        assert second.expires_at == pytest.approx(150.0)

    def test_release_returns_address(self, sim):
        dhcp = DhcpServer(sim, Ipv4Pool("10.1.0.0/30"))
        lease = dhcp.request_lease("c1")
        dhcp.release("c1")
        assert dhcp.pool.is_assigned(lease.ip) is False

    def test_release_unknown_rejected(self, sim):
        dhcp = DhcpServer(sim, Ipv4Pool("10.1.0.0/24"))
        with pytest.raises(LeaseError):
            dhcp.release("ghost")

    def test_expired_lease_reclaimed(self, sim, monkeypatch):
        monkeypatch.setattr(dhcp_module, "DEFAULT_LEASE_TTL_S", 10.0)
        dhcp = DhcpServer(sim, Ipv4Pool("10.1.0.0/24"))
        dhcp.request_lease("c1")
        sim.run(until=30.0)
        assert dhcp.lookup("c1") is None
        assert dhcp.leases_expired == 1

    def test_renewal_rearms_expiry(self, sim, monkeypatch):
        monkeypatch.setattr(dhcp_module, "DEFAULT_LEASE_TTL_S", 10.0)
        dhcp = DhcpServer(sim, Ipv4Pool("10.1.0.0/24"))
        dhcp.request_lease("c1")
        sim.schedule(8.0, dhcp.renew, "c1")
        sim.run(until=15.0)
        assert dhcp.lookup("c1") is not None  # renewed at t=8, expires t=18
        sim.run(until=30.0)
        assert dhcp.lookup("c1") is None

    def test_infinite_ttl_never_expires(self, sim, monkeypatch):
        monkeypatch.setattr(dhcp_module, "DEFAULT_LEASE_TTL_S", 10.0)
        dhcp = DhcpServer(sim, Ipv4Pool("10.1.0.0/24"))
        dhcp.request_lease("node1", ttl_s=float("inf"))
        sim.run(until=1000.0)
        assert dhcp.lookup("node1") is not None

    def test_renew_expired_rejected(self, sim, monkeypatch):
        monkeypatch.setattr(dhcp_module, "DEFAULT_LEASE_TTL_S", 10.0)
        dhcp = DhcpServer(sim, Ipv4Pool("10.1.0.0/24"))
        dhcp.request_lease("c1")
        sim.schedule(20.0, lambda: None)
        sim.run()
        with pytest.raises(LeaseError):
            dhcp.renew("c1")

    def test_pool_exhaustion_raises(self, sim):
        dhcp = DhcpServer(sim, Ipv4Pool("10.1.0.0/30"))  # 2 usable hosts
        dhcp.request_lease("a")
        dhcp.request_lease("b")
        with pytest.raises(AddressError):
            dhcp.request_lease("c")


class TestDns:
    def test_register_and_resolve(self):
        dns = DnsServer(zone="picloud.test")
        fqdn = dns.register("web-1", "10.0.0.5")
        assert fqdn == "web-1.picloud.test"
        assert dns.resolve("web-1") == "10.0.0.5"
        assert dns.resolve("web-1.picloud.test") == "10.0.0.5"

    def test_duplicate_rejected(self):
        dns = DnsServer(zone="z")
        dns.register("a", "1.2.3.4")
        with pytest.raises(NameError_):
            dns.register("a", "5.6.7.8")

    def test_update_existing(self):
        dns = DnsServer(zone="z")
        dns.register("a", "1.2.3.4")
        dns.update("a", "5.6.7.8")
        assert dns.resolve("a") == "5.6.7.8"

    def test_update_missing_rejected(self):
        with pytest.raises(NameError_):
            DnsServer().update("ghost", "1.1.1.1")

    def test_nxdomain(self):
        dns = DnsServer()
        with pytest.raises(NameError_, match="NXDOMAIN"):
            dns.resolve("nothing")
        assert dns.misses == 1

    def test_unregister(self):
        dns = DnsServer(zone="z")
        dns.register("a", "1.2.3.4")
        dns.unregister("a")
        with pytest.raises(NameError_):
            dns.resolve("a")

    def test_records_copy(self):
        dns = DnsServer(zone="z")
        dns.register("a", "1.2.3.4")
        records = dns.records()
        records["b.z"] = "x"
        assert "b.z" not in dns.records()
