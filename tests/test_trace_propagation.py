"""Cross-layer trace propagation: management -> REST -> virt -> network.

These tests drive the real stack (a booted PiCloud) and assert on the
causal structure the tracer records: one trace id per root operation,
retry attempts as child spans, deadline failures carrying their trace id
into 504 bodies and budget snapshots, and faults as instant spans.
"""

import pytest

from repro.core.cloud import PiCloud
from repro.core.config import PiCloudConfig, TraceConfig
from repro.errors import DeadlineExceeded, SimBudgetExceeded
from repro.faults import FaultSchedule
from repro.mgmt.node_daemon import NODE_DAEMON_PORT
from repro.mgmt.pimaster import OP_ATTEMPTS
from repro.sim.budget import SimBudgetConfig
from repro.sim.kernel import Simulator
from repro.trace import Tracer


def build_cloud(tracing=True, **overrides):
    defaults = dict(racks=2, pis=3, start_monitoring=False,
                    routing="shortest", trace=TraceConfig(enabled=tracing))
    defaults.update(overrides)
    cloud = PiCloud(PiCloudConfig.small(**defaults))
    cloud.boot()
    return cloud


# -- happy-path propagation -----------------------------------------------


def test_spawn_produces_one_trace_spanning_every_layer():
    cloud = build_cloud()
    cloud.spawn_and_wait("webserver", name="web-1")
    tracer = cloud.tracer

    spawn = tracer.find_spans(name="mgmt.spawn")[0]
    assert spawn.ok
    subtree = tracer.children_of(spawn, recursive=True)
    kinds = {span.kind for span in subtree}
    # The one spawn reaches management, both REST sides, the container
    # runtime, and the fabric -- all under a single trace id.
    assert {"mgmt", "rest.client", "rest.server", "virt", "net"} <= kinds
    assert {span.trace_id for span in subtree} == {spawn.trace_id}

    names = {span.name for span in subtree}
    assert {"mgmt.attempt", "mgmt.image_push", "virt.create",
            "virt.start", "net.flow"} <= names


def test_rest_server_span_nests_under_client_span():
    cloud = build_cloud()
    cloud.spawn_and_wait("webserver", name="web-1")
    tracer = cloud.tracer

    server = tracer.find_spans(name="rest.server POST /containers")[0]
    client = tracer.find_spans(name="rest.client POST /containers")[0]
    assert server.parent_id == client.span_id
    assert server.attributes["status"] == 201
    assert tracer.is_descendant(server,
                                tracer.find_spans(name="mgmt.spawn")[0])


def test_migration_spans_parent_their_copy_round_flows():
    cloud = build_cloud()
    record = cloud.spawn_and_wait("webserver", name="web-1")
    source = record.node_id
    target = next(n for n in cloud.pimaster.node_ids() if n != source)
    done = cloud.pimaster.migrate_container("web-1", target)
    cloud.run_until_signal(done)
    assert done.ok, done.exception
    tracer = cloud.tracer

    migrate = tracer.find_spans(name="virt.migrate")[0]
    assert migrate.ok
    assert migrate.attributes["source"] == source
    assert migrate.attributes["destination"] == target
    flows = [s for s in tracer.children_of(migrate) if s.name == "net.flow"]
    assert flows, "pre-copy rounds should be child net.flow spans"
    tags = {s.attributes["tag"] for s in flows}
    assert any(tag.startswith("migrate:web-1:") for tag in tags)
    # And the whole thing hangs off the management-plane migrate span.
    mgmt = tracer.find_spans(name="mgmt.migrate")[0]
    assert tracer.is_descendant(migrate, mgmt)


def test_tracing_off_by_default_records_nothing():
    cloud = build_cloud(tracing=False)
    assert cloud.tracer is None
    assert cloud.sim.tracer is None
    cloud.spawn_and_wait("webserver", name="web-1")  # still works untraced


# -- retry exhaustion (PR-1 machinery) ------------------------------------


def test_exhausted_retries_produce_attempt_spans_under_one_parent():
    cloud = build_cloud()
    cloud.spawn_and_wait("webserver", name="web-1")
    record = cloud.pimaster.container_record("web-1")
    # Kill the daemon: every subsequent call gets connection-refused
    # (RestError status 0), which the pimaster retries until exhausted.
    cloud.daemons[record.node_id].server.stop()

    done = cloud.pimaster.set_limits("web-1", cpu_quota=0.5)
    cloud.run_until_signal(done)
    assert not done.ok
    assert f"failed after {OP_ATTEMPTS} attempts" in str(done.exception)

    tracer = cloud.tracer
    parent = tracer.find_spans(name="mgmt.set_limits")[0]
    assert parent.status == "error"
    attempts = [s for s in tracer.children_of(parent)
                if s.name == "mgmt.attempt"]
    assert len(attempts) == OP_ATTEMPTS
    assert [s.attributes["attempt"] for s in attempts] == list(
        range(1, OP_ATTEMPTS + 1))
    assert all(s.status == "error" for s in attempts)
    # Each failed attempt made a real (failed) REST call under it.
    for attempt in attempts:
        client_spans = tracer.children_of(attempt)
        assert len(client_spans) == 1
        assert client_spans[0].kind == "rest.client"
        assert client_spans[0].status == "error"


def test_deadline_exceeded_carries_trace_id_after_exhaustion():
    cloud = build_cloud()
    cloud.daemons["pi-r0-n0"].server.stop()
    node_ip = cloud.pimaster.node_ip("pi-r0-n0")
    root = cloud.tracer.start_span("test.op", kind="test")
    caught = []

    def run():
        try:
            yield from cloud.pimaster._call_with_retry(
                lambda attempt: cloud.pimaster.client.get(
                    node_ip, NODE_DAEMON_PORT, "/containers", parent=attempt,
                ),
                "probe", parent=root,
            )
        except DeadlineExceeded as exc:
            caught.append(exc)

    cloud.sim.process(run())
    cloud.run_for(60.0)
    assert len(caught) == 1
    assert caught[0].attempts == OP_ATTEMPTS
    assert caught[0].trace_id == root.trace_id


# -- deadline 504s carry the trace id -------------------------------------


def test_node_daemon_504_body_carries_trace_id():
    cloud = build_cloud()
    tracer = cloud.tracer

    span = tracer.start_span("test.request", kind="test")
    node_ip = cloud.pimaster.node_ip("pi-r0-n0")
    push = cloud.pimaster.images.ensure_cached(
        cloud.pimaster.client, "pi-r0-n0", node_ip, NODE_DAEMON_PORT,
        cloud.pimaster.images.get("webserver"), parent=span,
    )
    cloud.run_until_signal(push)
    assert push.ok

    # A deadline far below the ~23 s rootfs provisioning time guarantees
    # the create trips the daemon-side guard.
    cloud.daemons["pi-r0-n0"].op_deadline_s = 0.5
    response_signal = cloud.pimaster.client.post(
        node_ip, NODE_DAEMON_PORT, "/containers",
        body={"name": "doomed", "image": "webserver:v1"},
        parent=span,
    )
    cloud.run_until_signal(response_signal)
    response = response_signal.value
    assert response.status == 504
    assert response.body["trace_id"] == span.trace_id
    assert "deadline" in response.body["error"].lower() \
        or "within" in response.body["error"].lower()


# -- budget snapshots carry the trace id ----------------------------------


def test_budget_snapshot_records_active_trace_id():
    sim = Simulator(budget=SimBudgetConfig(max_events=10))
    tracer = Tracer(sim)
    span = tracer.start_span("experiment.phase", kind="test")
    for i in range(50):
        sim.schedule(0.1 * i, lambda: None)

    with pytest.raises(SimBudgetExceeded) as excinfo:
        sim.run()
    snapshot = excinfo.value.snapshot
    assert snapshot.trace_id == span.trace_id
    assert f"active trace: {span.trace_id}" in snapshot.describe()


def test_budget_snapshot_trace_id_none_when_untraced():
    sim = Simulator(budget=SimBudgetConfig(max_events=10))
    for i in range(50):
        sim.schedule(0.1 * i, lambda: None)
    with pytest.raises(SimBudgetExceeded) as excinfo:
        sim.run()
    assert excinfo.value.snapshot.trace_id is None
    assert "active trace" not in excinfo.value.snapshot.describe()


# -- faults appear as instant spans ---------------------------------------


def test_scripted_faults_recorded_as_instant_spans():
    cloud = build_cloud()
    schedule = FaultSchedule(cloud)
    schedule.cut_link(10.0, "tor0", "agg0")
    schedule.repair_link(20.0, "tor0", "agg0")
    schedule.fail_node(15.0, "pi-r1-n1")
    schedule.arm()
    cloud.run_for(30.0)

    tracer = cloud.tracer
    faults = tracer.find_spans(kind="fault")
    by_name = {s.name: s for s in faults}
    assert by_name["fault.link-fail"].start == pytest.approx(10.0)
    assert by_name["fault.link-fail"].status == "error"
    assert by_name["fault.link-fail"].attributes["target"] == "tor0|agg0"
    assert by_name["fault.node-fail"].start == pytest.approx(15.0)
    assert by_name["fault.link-repair"].start == pytest.approx(20.0)
    assert by_name["fault.link-repair"].status == "ok"
    # All are zero-duration instants.
    assert all(s.start == s.end_time for s in faults)


# -- congestion episodes --------------------------------------------------


def test_congestion_episodes_become_spans():
    cloud = build_cloud()
    # Saturate one access link well past the 0.9 threshold.
    flow = cloud.network.transfer("pi-r0-n0", "pi-r0-n1", 50e6, tag="elephant")
    cloud.run_until_signal(flow)

    tracer = cloud.tracer
    episodes = tracer.find_spans(name_prefix="congestion:")
    assert episodes, "a saturated link must open a congestion span"
    directions = {s.attributes["direction"] for s in episodes}
    assert any("pi-r0-n0" in d or "tor0" in d for d in directions)
    # The elephant's flow span overlaps at least one episode.
    flow_span = tracer.find_spans(name="net.flow", predicate=lambda s:
                                  s.attributes.get("tag") == "elephant")[0]
    assert tracer.overlapping(flow_span, name_prefix="congestion:")
