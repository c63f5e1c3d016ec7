"""Campaign runner, spec, store, and dashboard behaviour.

Covers the acceptance points of the campaign subsystem: deterministic
grid expansion and run IDs, multi-process fan-out under per-run kernel
budgets (a tripped :class:`SimBudgetExceeded` is a ``budget-exceeded``
*record*, not a crashed campaign), JSONL/SQLite round-trips with
corrupt-trailing-line tolerance, dashboard rendering from a fixture
store, and the cleanup guarantees (parent dirs created, no partial
files left by killed workers).

Test scenarios are registered at module import; the runner's
fork-preferred start method means worker processes inherit the
registry, so specs here can reference them by name.
"""

import os
import time

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    RunRecord,
    load_spec,
    run_campaign,
)
from repro.campaign.dashboard import render_dashboard
from repro.campaign.runner import CampaignRunner
from repro.campaign.scenarios import (register_scenario,
                                      registered_scenarios,
                                      resolve_scenario)
from repro.core.config import SimBudgetConfig
from repro.errors import CampaignError


# -- test scenarios ----------------------------------------------------------


@register_scenario("t-echo")
def _echo_scenario(ctx):
    """Deterministic, instant: metrics derived from params + seed."""
    return {
        "value": ctx.param("x", 0) * 10 + ctx.seed,
        "seed": ctx.seed,
        "pid": os.getpid(),
    }


@register_scenario("t-budget")
def _budget_scenario(ctx):
    """Trips the kernel's event budget almost immediately."""
    from repro.sim.kernel import Simulator

    sim = Simulator(budget=ctx.budget.run_budget())

    def tick():
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run()
    return {"events": sim.events_executed}


@register_scenario("t-crash")
def _crash_scenario(ctx):
    """Kills the worker interpreter outright (no result file)."""
    os._exit(17)


@register_scenario("t-flaky")
def _flaky_scenario(ctx):
    """Crashes on the first attempt, succeeds on the retry.

    Uses a marker file in the artifacts dir's parent to span attempts
    (the per-attempt artifacts dir itself is wiped on retry).
    """
    marker = ctx.artifacts_dir.parent / f"flaky-{ctx.seed}.marker"
    if not marker.exists():
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.write_text("attempted")
        os._exit(9)
    return {"recovered": 1}


@register_scenario("t-slow")
def _slow_scenario(ctx):
    """Outlives any reasonable run_timeout_s."""
    time.sleep(60.0)
    return {"done": 1}


@register_scenario("t-raise")
def _raise_scenario(ctx):
    raise ValueError("scenario exploded on purpose")


@register_scenario("t-artifact")
def _artifact_scenario(ctx):
    ctx.artifact_path("nested/deep/out.txt").write_text(f"seed={ctx.seed}")
    return {"wrote": 1}


def _spec(**overrides):
    base = dict(
        name="t-campaign", scenario="t-echo",
        grid={"x": [1, 2, 3]}, seeds=[7, 8],
        workers=2, retries=0,
    )
    base.update(overrides)
    return CampaignSpec(**base)


# -- spec + grid expansion ---------------------------------------------------


class TestSpecExpansion:
    def test_grid_times_seeds(self):
        spec = _spec(grid={"a": [1, 2], "b": ["x", "y", "z"]})
        assert spec.cell_count == 6
        assert spec.run_count == 12
        runs = spec.expand()
        assert len(runs) == 12
        assert [r.index for r in runs] == list(range(12))
        # axes iterate sorted by name, seeds innermost
        assert runs[0].cell == {"a": 1, "b": "x"}
        assert runs[0].seed == 7 and runs[1].seed == 8
        assert runs[2].cell == {"a": 1, "b": "y"}

    def test_cell_overrides_fixed_params(self):
        spec = _spec(params={"x": 99, "k": "fixed"}, grid={"x": [1]})
        run = spec.expand()[0]
        assert run.params == {"x": 1, "k": "fixed"}

    def test_empty_grid_is_one_cell(self):
        spec = _spec(grid={}, seeds=[1, 2, 3])
        assert spec.cell_count == 1
        assert [r.seed for r in spec.expand()] == [1, 2, 3]

    def test_run_ids_are_deterministic_across_expansions(self):
        ids_a = [r.run_id for r in _spec().expand()]
        ids_b = [r.run_id for r in _spec().expand()]
        assert ids_a == ids_b
        assert len(set(ids_a)) == len(ids_a)          # all distinct

    def test_run_id_tracks_content(self):
        base = _spec().expand()[0]
        assert _spec(name="other").expand()[0].run_id != base.run_id
        assert _spec(grid={"x": [5, 2, 3]}).expand()[0].run_id != base.run_id
        # ...but budget/workers/timeout are execution detail, not identity
        assert _spec(
            workers=7, retries=3,
            budget=SimBudgetConfig(max_events=12),
        ).expand()[0].run_id == base.run_id

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(CampaignError):
            _spec(grid={"x": []})
        with pytest.raises(CampaignError):
            _spec(seeds=[])
        with pytest.raises(CampaignError):
            _spec(seeds=["not-an-int"])
        with pytest.raises(CampaignError):
            _spec(workers=0)
        with pytest.raises(CampaignError):
            _spec(run_timeout_s=0.0)
        with pytest.raises(CampaignError):
            _spec(grid={"x": [object()]})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(CampaignError, match="unknown campaign spec"):
            CampaignSpec.from_dict({
                "name": "n", "scenario": "t-echo", "grdi": {},
            })
        with pytest.raises(CampaignError, match="unknown budget"):
            CampaignSpec.from_dict({
                "name": "n", "scenario": "t-echo",
                "budget": {"max_evnets": 5},
            })

    def test_load_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(
            "name: yaml-campaign\n"
            "scenario: t-echo\n"
            "grid:\n  x: [1, 2]\n"
            "seeds: [3]\n"
            "budget:\n  max_events: 5000\n"
        )
        spec = load_spec(path)
        assert spec.name == "yaml-campaign"
        assert spec.budget.max_events == 5000
        assert spec.run_count == 2

    def test_unknown_scenario_fails_before_forking(self, tmp_path):
        spec = _spec(scenario="no-such-scenario")
        with pytest.raises(CampaignError, match="unknown scenario"):
            CampaignRunner(spec, tmp_path / "out", verbose=False).run()

    def test_dotted_ref_resolves(self):
        fn = resolve_scenario("repro.campaign.scenarios:availability_mtbf")
        assert callable(fn)


# -- the runner --------------------------------------------------------------


class TestRunnerFanOut:
    def test_fan_out_across_workers(self, tmp_path):
        result = run_campaign(_spec(), tmp_path / "out", verbose=False)
        assert result.ok
        assert len(result.records) == 6
        assert all(r.status == "ok" for r in result.records)
        # metrics are the scenario's own numbers
        by_id = {r.run_id: r for r in result.records}
        for run in _spec().expand():
            record = by_id[run.run_id]
            assert record.metrics["value"] == run.params["x"] * 10 + run.seed
        # genuinely more than one worker process did the work
        pids = {r.metrics["pid"] for r in result.records}
        assert len(pids) >= 2
        # the JSONL store has one line per run, and the tmp dir is gone
        lines = (tmp_path / "out" / "results.jsonl").read_text().splitlines()
        assert len(lines) == 6
        assert not (tmp_path / "out" / "tmp").exists()

    def test_rerun_is_deterministic(self, tmp_path):
        first = run_campaign(_spec(), tmp_path / "a", verbose=False)
        second = run_campaign(_spec(), tmp_path / "b", verbose=False)
        assert {r.run_id for r in first.records} == \
               {r.run_id for r in second.records}
        metrics_a = {r.run_id: r.metrics["value"] for r in first.records}
        metrics_b = {r.run_id: r.metrics["value"] for r in second.records}
        assert metrics_a == metrics_b

    def test_budget_trip_is_a_record_not_a_crash(self, tmp_path):
        spec = _spec(
            scenario="t-budget", grid={}, seeds=[1],
            budget=SimBudgetConfig(max_events=50), retries=1,
        )
        result = run_campaign(spec, tmp_path / "out", verbose=False)
        assert not result.ok
        (record,) = result.records
        assert record.status == "budget-exceeded"
        assert record.error_type == "SimBudgetExceeded"
        assert "budget" in record.error.lower()
        # deterministic failures are NOT retried
        assert record.attempts == 1

    def test_scenario_exception_is_a_failed_record(self, tmp_path):
        spec = _spec(scenario="t-raise", grid={}, seeds=[1], retries=2)
        result = run_campaign(spec, tmp_path / "out", verbose=False)
        (record,) = result.records
        assert record.status == "failed"
        assert record.error_type == "ValueError"
        assert "exploded on purpose" in record.error
        assert record.attempts == 1

    def test_worker_crash_retries_then_records(self, tmp_path):
        spec = _spec(scenario="t-crash", grid={}, seeds=[1],
                     workers=1, retries=1)
        result = run_campaign(spec, tmp_path / "out", verbose=False,
                              dashboard=False)
        (record,) = result.records
        assert record.status == "crashed"
        assert record.attempts == 2                   # initial + 1 retry
        assert "exit code" in record.error

    def test_crash_then_recover_on_retry(self, tmp_path):
        spec = _spec(scenario="t-flaky", grid={}, seeds=[5],
                     workers=1, retries=1)
        result = run_campaign(spec, tmp_path / "out", verbose=False)
        (record,) = result.records
        assert record.status == "ok"
        assert record.attempts == 2
        assert record.metrics == {"recovered": 1}

    def test_timeout_kills_and_records(self, tmp_path):
        spec = _spec(scenario="t-slow", grid={}, seeds=[1],
                     workers=1, retries=0, run_timeout_s=0.4)
        started = time.monotonic()
        result = run_campaign(spec, tmp_path / "out", verbose=False,
                              dashboard=False)
        assert time.monotonic() - started < 30.0
        (record,) = result.records
        assert record.status == "timeout"
        assert "run_timeout_s" in record.error

    def test_no_partial_files_after_failures(self, tmp_path):
        spec = _spec(scenario="t-crash", grid={}, seeds=[1, 2],
                     retries=0)
        run_campaign(spec, tmp_path / "out", verbose=False, dashboard=False)
        leftovers = [
            p for p in (tmp_path / "out").rglob("*")
            if p.suffix in (".partial", ".marker") or p.parent.name == "tmp"
        ]
        assert leftovers == []
        # crashed runs leave no artifacts directories either
        assert not (tmp_path / "out" / "artifacts").exists()

    def test_out_dir_parents_created_and_artifacts_kept(self, tmp_path):
        out = tmp_path / "deeply" / "nested" / "campaign"
        spec = _spec(scenario="t-artifact", grid={}, seeds=[3])
        result = run_campaign(spec, out, verbose=False)
        (record,) = result.records
        assert record.ok
        assert record.artifacts == ["nested/deep/out.txt"]
        artifact = out / "artifacts" / record.run_id / "nested/deep/out.txt"
        assert artifact.read_text() == "seed=3"

    def test_stale_previous_results_are_cleared(self, tmp_path):
        out = tmp_path / "out"
        run_campaign(_spec(), out, verbose=False)
        spec = _spec(grid={"x": [1]}, seeds=[7])      # 1 run this time
        result = run_campaign(spec, out, verbose=False)
        assert len(result.records) == 1
        assert len(ResultStore.load(out)) == 1


# -- the store ---------------------------------------------------------------


def _fixture_records():
    records = []
    for index, (mtbf, healing) in enumerate(
        [(80, True), (80, False), (300, True), (300, False)]
    ):
        for seed in (1, 2):
            records.append(RunRecord(
                run_id=f"fix{index}{seed}", campaign="fixture",
                scenario="t-echo", index=index,
                cell={"node_mtbf_s": mtbf, "self_healing": healing},
                params={"node_mtbf_s": mtbf, "self_healing": healing},
                seed=seed, status="ok",
                metrics={"fleet_availability": 0.9 + index / 100 + seed / 1000,
                         "containers_running": 4 - index % 2},
                duration_s=0.5,
            ))
    records.append(RunRecord(
        run_id="fixbad1", campaign="fixture", scenario="t-echo", index=4,
        cell={"node_mtbf_s": 80, "self_healing": True},
        params={"node_mtbf_s": 80, "self_healing": True}, seed=3,
        status="budget-exceeded", error="run budget exceeded: 2000000 events",
        error_type="SimBudgetExceeded",
    ))
    return records


class TestResultStore:
    def test_jsonl_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for record in _fixture_records():
            store.append(record)
        loaded = ResultStore.load(tmp_path / "store")
        assert len(loaded) == 9
        assert [r.to_dict() for r in loaded] == \
               [r.to_dict() for r in _fixture_records()]
        assert len(loaded.failed()) == 1

    def test_sqlite_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for record in _fixture_records():
            store.append(record)
        sqlite_path = store.write_sqlite()
        loaded = ResultStore.load(sqlite_path)
        assert [r.to_dict() for r in loaded] == \
               [r.to_dict() for r in _fixture_records()]

    def test_truncated_trailing_line_is_dropped(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        for record in _fixture_records():
            store.append(record)
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"run_id": "trunc')        # killed mid-append
        loaded = ResultStore.load(tmp_path / "store")
        assert len(loaded) == 9
        assert "truncated" in capsys.readouterr().err

    def test_mid_file_corruption_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for record in _fixture_records():
            store.append(record)
        lines = store.path.read_text().splitlines()
        lines[2] = "NOT JSON"
        store.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CampaignError, match="corrupt"):
            ResultStore.load(tmp_path / "store")

    def test_load_missing_store_raises(self, tmp_path):
        with pytest.raises(CampaignError):
            ResultStore.load(tmp_path / "nope")

    def test_unknown_record_fields_are_dropped(self):
        raw = _fixture_records()[0].to_dict()
        raw["from_the_future"] = {"x": 1}
        record = RunRecord.from_dict(raw)
        assert record.run_id == "fix01"


# -- the dashboard -----------------------------------------------------------


class TestDashboard:
    def test_render_from_fixture_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for record in _fixture_records():
            store.append(record)
        path = render_dashboard(store, tmp_path / "dash" / "dashboard.html")
        html = (tmp_path / "dash" / "dashboard.html").read_text()
        assert path.endswith("dashboard.html")
        # metric grids for the numeric metrics, with sparklines
        assert "fleet_availability" in html
        assert "containers_running" in html
        assert "<polyline" in html
        # the failed run is visible as a labelled badge, never color-alone
        assert "budget-exceeded" in html
        # runs table lists every record
        assert html.count("fix") >= 9

    def test_render_is_deterministic(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for record in _fixture_records():
            store.append(record)
        render_dashboard(store, tmp_path / "a.html")
        render_dashboard(store, tmp_path / "b.html")
        assert (tmp_path / "a.html").read_bytes() == \
               (tmp_path / "b.html").read_bytes()

    def test_baseline_deltas_rendered(self, tmp_path):
        base = ResultStore(tmp_path / "base")
        cur = ResultStore(tmp_path / "cur")
        for record in _fixture_records():
            base.append(record)
        for record in _fixture_records():
            if record.run_id == "fix01":
                record.metrics = dict(record.metrics,
                                      fleet_availability=0.5)
            cur.append(record)
        render_dashboard(cur, tmp_path / "d.html", baseline=base)
        html = (tmp_path / "d.html").read_text()
        assert "fix01" in html
        assert "Baseline comparison" in html
        assert "differ from the" in html               # the delta table rendered


# -- facade ------------------------------------------------------------------


class TestFacade:
    def test_campaign_names_resolve_via_repro(self):
        import repro

        assert repro.CampaignSpec is CampaignSpec
        assert repro.run_campaign is run_campaign
        assert issubclass(repro.CampaignError, repro.PiCloudError)


# -- the partition_chaos built-in scenario -----------------------------------


class TestPartitionChaosScenario:
    def test_smoke_cell_with_fencing_holds_the_invariant(self):
        """One small fenced cell end to end: the partition fires, nodes
        go UNREACHABLE, and no duplicate container epoch survives."""
        from repro.campaign.scenarios import RunContext

        scenario = resolve_scenario("partition_chaos")
        metrics = scenario(RunContext(
            params={
                "partition_s": 20.0, "unreachable_grace_s": 8.0,
                "fencing": True, "pod": 0, "fat_tree_k": 4,
                "racks": 4, "pis": 4, "web_containers": 2,
                "settle_s": 10.0, "arrival_rate": 5.0,
                "heartbeat_interval_s": 1.0, "heartbeat_timeout_s": 0.5,
            },
            seed=42,
        ))
        assert metrics["mgmt.duplicate_container_epochs"] == 0
        assert metrics["mgmt.unreachable_s"] > 0.0
        assert metrics["mgmt.fencing_epoch"] > 0
        assert metrics["pod_members"] >= 5  # 4 hosts + pod switches
        assert metrics["web_offered_requests"] > 0
        # Grace (8 s) shorter than the partition (20 s): the pod's nodes
        # were falsely declared dead, and that is visible.
        assert metrics["mgmt.false_dead_evacuations"] > 0
        assert metrics["mgmt.stale_epoch_rejections"] >= 0
        assert metrics["sim_time_s"] > 30.0

    def test_registered_as_builtin(self):
        assert "partition_chaos" in registered_scenarios()


# -- the scale_perf built-in scenario ----------------------------------------


class TestScalePerfScenario:
    def test_rerun_reproduces_every_metric(self, short_scale_windows):
        from repro.campaign.scenarios import RunContext

        scenario = resolve_scenario("scale_perf")
        ctx = dict(params={"nodes": 56, "pairs": 2}, seed=56)
        first = scenario(RunContext(**ctx))
        assert first["sim.events"] > 0
        assert scenario(RunContext(**ctx)) == first


class TestAdmission:
    """The runner keeps at most ``workers`` runs in flight.

    Each probe run drops a marker file, sleeps, and records the markers
    of any other run it saw alive meanwhile."""

    @staticmethod
    def _probe(tmp_path, name, workers):
        overlap_dir = tmp_path / "overlap"
        overlap_dir.mkdir()

        @register_scenario(name)
        def _mark(ctx):
            me = overlap_dir / f"run-{ctx.seed}"
            me.write_text("alive")
            time.sleep(0.5)
            others = [p.name for p in overlap_dir.iterdir()
                      if p.name != me.name]
            me.unlink()
            return {"others_seen": others}

        spec = _spec(scenario=name, grid={}, seeds=[1, 2, 3],
                     workers=workers)
        result = CampaignRunner(
            spec, tmp_path / "out", verbose=False).run()
        assert result.ok
        return [r.metrics["others_seen"] for r in result.records]

    def test_single_worker_never_overlaps(self, tmp_path):
        assert self._probe(tmp_path, "t-mark", workers=1) == [[], [], []]

    def test_runs_overlap_up_to_workers(self, tmp_path):
        """Sanity check of the probe: workers=3 runs the same three runs
        concurrently."""
        assert any(self._probe(tmp_path, "t-mark2", workers=3))
