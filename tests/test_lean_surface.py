"""The public surface and the parameters that nothing but tests uses are
pinned keep-lists.

ROADMAP item 6's rule: a public ``def``/``class`` or module-level
UPPER_CASE constant in ``src/`` stays only if ``src/``, an example, a
benchmark, ``bench/`` or a spec uses it (the CLI lives in ``src/``), or
if it is a declared keeper with a reason there.  The same rule holds for
a defaulted parameter of a public callable: it stays only if one of
those files passes it, by keyword or by position, or if it is a declared
keeper.  This module runs both scans over the repository and asserts
that what they find is exactly :data:`KEEPERS` and
:data:`PARAM_KEEPERS`.

The scans match by name: a method whose name something else also uses
(``run``, ``stop``) never shows, and a call passes its arguments to every
callable of that name, so each list is a set of candidates, not proof.
A package's re-exports (``from ... import`` in an ``__init__.py``,
``__all__``, the facade's ``_FACADE``) and quoted forward references do
not count as uses.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USERS = ("src", "examples", "benchmarks", "bench", "specs")
REEXPORTS = {"__all__", "_FACADE"}
DATA_SUFFIXES = {".yaml", ".yml", ".json", ".toml", ".txt"}

# Test-only public names that stay on purpose; ROADMAP item 6 gives the
# one-line reason for each.
KEEPERS = sorted([
    # Named by docs/api.md's migration tables as the replacement for
    # removed spec lookups.
    "src/repro/hardware/catalog.py:SPEC_CATALOG",
    # Probes that tests of other subjects read.
    "src/repro/mgmt/node_daemon.py:has_image",
    "src/repro/netsim/addresses.py:assigned_count",
    "src/repro/netsim/addresses.py:is_assigned",
    "src/repro/netsim/fabric.py:active_flow_count",
    "src/repro/netsim/fabric.py:active_flows",
    "src/repro/sim/kernel.py:pending_events",
    "src/repro/sim/resources.py:try_get",
    "src/repro/trace/tracer.py:open_spans",
    # Names a planned item uses.
    "src/repro/mgmt/recovery.py:retry_unschedulable",
    "src/repro/telemetry/monitor.py:PeriodicSampler",
    # Test infrastructure: the topology builder and the CI trace dump.
    "src/repro/netsim/topology.py:single_switch",
    "src/repro/trace/tracer.py:live_tracers",
    # Documented facade API.
    "src/repro/core/cloud.py:boot_async",
    "src/repro/faults.py:fail_pod",
    "src/repro/faults.py:fail_power_domain",
    "src/repro/faults.py:fail_tor",
    "src/repro/faults.py:repair_node",
    "src/repro/faults.py:restore_node",
    "src/repro/trace/tracer.py:is_descendant",
])

# Defaulted parameters that no user file passes and that stay on purpose.
# Every other model or calibration value is a module constant next to its
# one reader (docs/api.md, "Migrating from 5.x").
PARAM_KEEPERS = sorted([
    # (a) Deployment settings: ports, addresses and output paths.
    "src/repro/apps/http.py:HttpClientApp(server_port)",
    "src/repro/apps/http.py:HttpClientApp(src_ip)",
    "src/repro/apps/http.py:HttpServerApp(port)",
    "src/repro/apps/mapreduce.py:MapReduceJob(shuffle_port)",
    "src/repro/campaign/store.py:ResultStore.write_sqlite(path)",
    "src/repro/core/experiments.py:chatty_pairs(port)",
    "src/repro/mgmt/monitoring.py:MonitoringService(daemon_port)",
    "src/repro/mgmt/node_daemon.py:NodeDaemon(port)",
    "src/repro/mgmt/rest.py:RestClient.request(src_ip)",
    "src/repro/mgmt/rest.py:RestServer(ip)",
    # (b) Seams a test fills with a fake.
    "src/repro/mgmt/health.py:FailureDetector(fault_context_provider)",
    "src/repro/mgmt/images.py:ImageService(library)",
    "src/repro/mgmt/node_daemon.py:NodeDaemon(peer_resolver)",
    "src/repro/mgmt/node_daemon.py:NodeDaemon(runtime)",
    "src/repro/mgmt/p2p.py:P2pAgent(rng)",
    "src/repro/virt/image.py:ImageLibrary(images)",
    # (c) Arguments of a query or primitive: what to look up, solve,
    # draw, push or run, not a model value.
    "src/repro/apps/traffic.py:OnOffTrafficSource(duration_s)",
    "src/repro/campaign/dashboard.py:render_dashboard(title)",
    "src/repro/core/experiments.py:run_phase(wall_s)",
    "src/repro/hardware/cpu.py:Cpu.mean_utilization(end)",
    "src/repro/hardware/cpu.py:Cpu.mean_utilization(start)",
    "src/repro/load/arrivals.py:pareto_size(alpha)",
    "src/repro/load/arrivals.py:pareto_size(minimum)",
    "src/repro/load/engine.py:LoadEngine.run(drain_s)",
    "src/repro/load/slo.py:SloTracker.burn_rate(now)",
    "src/repro/load/slo.py:SloTracker.burn_rate(window_s)",
    "src/repro/mgmt/dashboard.py:load_bar(width)",
    "src/repro/mgmt/distribution.py:ImageDistributor.distribute_peer_assisted(nodes)",
    "src/repro/mgmt/distribution.py:ImageDistributor.distribute_unicast(nodes)",
    "src/repro/netsim/fairness.py:max_min_rates(rate_caps)",
    "src/repro/netsim/link.py:LinkDirection.mean_utilization(end)",
    "src/repro/netsim/link.py:LinkDirection.mean_utilization(start)",
    "src/repro/netsim/sdn/openflow.py:FlowTable.install(priority)",
    "src/repro/netsim/sdn/openflow.py:OpenFlowSwitch.match(key)",
    "src/repro/sim/kernel.py:Simulator.run(max_events)",
    "src/repro/sim/kernel.py:Simulator.schedule_at(priority)",
    "src/repro/sim/kernel.py:Simulator.snapshot(head)",
    "src/repro/sim/process.py:Timeout(value)",
    "src/repro/sim/resources.py:Store(capacity)",
    "src/repro/telemetry/monitor.py:PeriodicSampler(duration)",
    "src/repro/telemetry/monitor.py:PeriodicSampler(name)",
    "src/repro/trace/tracer.py:Tracer.find_spans(predicate)",
    "src/repro/trace/tracer.py:Tracer.find_spans(trace_id)",
    "src/repro/trace/tracer.py:Tracer.finish_open_spans(detail)",
    "src/repro/trace/tracer.py:Tracer.finish_open_spans(status)",
    "src/repro/trace/tracer.py:Tracer.overlapping(name)",
    # (c) The test topology builder's link figures.
    "src/repro/netsim/topology.py:single_switch(bandwidth)",
    "src/repro/netsim/topology.py:single_switch(latency)",
])


def _named_in(tree: ast.AST, package: bool) -> set[str]:
    """Identifiers a module uses; a package's re-exports do not count."""
    skip = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and package) or (
                isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in REEXPORTS
                    for t in node.targets)):
            skip.update(id(n) for n in ast.walk(node))
        # A quoted forward reference is a type, not a use.
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if ann is not None:
                skip.update(id(n) for n in ast.walk(ann)
                            if isinstance(n, ast.Constant))
    names = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            # Binding a name is not a use of it.
            if not isinstance(node.ctx, ast.Store):
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def _user_files(root: Path):
    """``(user, path)`` of every file under ``root``'s ``USERS``."""
    for user in USERS:
        for path in sorted((root / user).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                yield user, path


def _constants(tree: ast.Module) -> list[str]:
    """Public module-level UPPER_CASE names a module binds."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return [t.id for t in targets if isinstance(t, ast.Name)
            and t.id.isupper() and not t.id.startswith("_")]


def unused_public_names(root: Path) -> list[str]:
    """Sorted ``path:name`` of every public def/class and module-level
    constant under ``root/src`` that no file under ``USERS`` uses."""
    used, defs = set(), []
    for user, path in _user_files(root):
        if path.suffix == ".py":
            tree = ast.parse(path.read_text(), str(path))
            used |= _named_in(tree, path.name == "__init__.py")
            if user == "src":
                rel = path.relative_to(root).as_posix()
                defs += [f"{rel}:{node.name}" for node in ast.walk(tree)
                         if isinstance(node, (ast.FunctionDef,
                                              ast.AsyncFunctionDef,
                                              ast.ClassDef))
                         and not node.name.startswith("_")]
                defs += [f"{rel}:{name}" for name in _constants(tree)]
        elif path.suffix in DATA_SUFFIXES:
            used |= set(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    return sorted({d for d in defs if d.rsplit(":", 1)[1] not in used})


def _defaulted_parameters(tree: ast.Module, rel: str):
    """``(label, callee, parameter, position)`` for each defaulted
    parameter of a public function, method or constructor; ``callee`` is
    the name a call uses (the class, for ``__init__``) and ``position``
    the parameter's index among a call's positional arguments, or None
    for a keyword-only one."""
    found = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                visit(node.body, node.name)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and (node.name == "__init__" or not node.name.startswith("_"))):
                callee = cls if node.name == "__init__" else node.name
                label = callee if node.name == "__init__" or cls is None else (
                    f"{cls}.{node.name}")
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                skip = 1 if cls is not None and not static else 0
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for index, arg in enumerate(positional[first:], first):
                    found.append((f"{rel}:{label}({arg.arg})", callee,
                                  arg.arg, index - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((f"{rel}:{label}({arg.arg})", callee,
                                      arg.arg, None))

    visit(tree.body, None)
    return found


def _callee(node: ast.Call, bases: dict, cls):
    """The name a call invokes; ``super().__init__`` invokes the class's
    first base."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "__init__":
        return bases.get(cls, [None])[0] if cls else None
    return func.attr


def unpassed_parameters(root: Path) -> list[str]:
    """Sorted ``path:Callable(parameter)`` of every defaulted parameter of
    a public callable under ``root/src`` that no file under ``USERS``
    passes by keyword or by position.  A call passes its arguments to
    every callable of its name; ``*args`` passes every position and
    ``**kwargs`` every keyword.  A subclass that inherits ``__init__``
    passes its base's parameters."""
    trees, params = [], []
    for user, path in _user_files(root):
        if path.suffix == ".py":
            tree = ast.parse(path.read_text(), str(path))
            trees.append(tree)
            if user == "src":
                params += _defaulted_parameters(
                    tree, path.relative_to(root).as_posix())
    bases, own_init = {}, set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases
                                    if isinstance(b, ast.Name)]
                if any(isinstance(item, ast.FunctionDef)
                       and item.name == "__init__" for item in node.body):
                    own_init.add(node.name)
    # A class's constructor is also called by each subclass's name that
    # inherits it.
    aliases = {}
    for name in bases:
        owner = name
        while owner not in own_init and bases.get(owner):
            owner = bases[owner][0]
        aliases.setdefault(owner, set()).add(name)
    keywords, positions, all_keywords = {}, {}, set()

    def record(node, cls):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.ClassDef) else cls
            if isinstance(child, ast.Call):
                name = _callee(child, bases, cls)
                if any(isinstance(a, ast.Starred) for a in child.args):
                    count = float("inf")
                else:
                    count = len(child.args)
                positions[name] = max(positions.get(name, 0), count)
                for keyword in child.keywords:
                    if keyword.arg is None:
                        all_keywords.add(name)
                    else:
                        keywords.setdefault(name, set()).add(keyword.arg)
            record(child, inner)

    for tree in trees:
        record(tree, None)
    unpassed = []
    for label, callee, name, position in params:
        callees = aliases.get(callee, set()) | {callee}
        if not any(
            name in keywords.get(c, ()) or c in all_keywords
            or (position is not None and positions.get(c, 0) > position)
            for c in callees
        ):
            unpassed.append(label)
    return sorted(unpassed)


def test_test_only_surface_is_the_keep_list():
    found = unused_public_names(ROOT)
    new = sorted(set(found) - set(KEEPERS))
    assert not new, (
        f"public names only tests use: {new}. ROADMAP item 6's rule: use "
        "the name from src/, an example, a benchmark, bench/ or a spec, "
        "or delete it, or add it to KEEPERS with a reason in ROADMAP "
        "item 6."
    )
    stale = sorted(set(KEEPERS) - set(found))
    assert not stale, (
        f"keepers that something now uses or that are gone: {stale}; "
        "drop them from KEEPERS and from ROADMAP item 6's keep-list."
    )


def test_unpassed_parameters_are_the_keep_list():
    found = unpassed_parameters(ROOT)
    new = sorted(set(found) - set(PARAM_KEEPERS))
    assert not new, (
        f"defaulted parameters only tests pass: {new}. Pass them from "
        "src/, an example, a benchmark, bench/ or a spec, or make each "
        "value a module constant next to its reader, or add it to "
        "PARAM_KEEPERS as a deployment setting, a test seam or the "
        "argument of a query."
    )
    stale = sorted(set(PARAM_KEEPERS) - set(found))
    assert not stale, (
        f"parameter keepers that something now passes or that are gone: "
        f"{stale}; drop them from PARAM_KEEPERS."
    )


def test_scan_ignores_reexports_and_forward_references(tmp_path):
    files = {
        "src/pkg/__init__.py": (
            "from pkg.mod import Used, Unused, helper\n"
            "__all__ = ['Used', 'Unused', 'helper']\n"
        ),
        "src/pkg/mod.py": (
            "class Used: ...\n"
            "class Unused: ...\n"
            "def helper() -> 'Unused': ...\n"
            "def _private(): ...\n"
            "READ = 1\n"
            "UNREAD = READ\n"
        ),
        "examples/demo.py": "from pkg import Used\nUsed()\n",
        "specs/run.yaml": "scenario: helper\n",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unused_public_names(tmp_path) == [
        "src/pkg/mod.py:UNREAD", "src/pkg/mod.py:Unused"]


def test_parameter_scan_counts_keywords_positions_and_inheritance(tmp_path):
    files = {
        "src/pkg/mod.py": (
            "class Base:\n"
            "    def __init__(self, a=1, b=2, *, c=3): ...\n"
            "    def query(self, key=None, limit=10): ...\n"
            "    def _hidden(self, x=0): ...\n"
            "class Child(Base):\n"
            "    pass\n"
            "class Own(Base):\n"
            "    def __init__(self, d=4):\n"
            "        super().__init__(0, c=5)\n"
            "def tool(n, m=0, **kw): ...\n"
        ),
        "examples/demo.py": (
            "from pkg.mod import Child, Own, tool\n"
            "Child(b=1).query('k')\n"
            "Own()\n"
            "tool(*[1, 2])\n"
        ),
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unpassed_parameters(tmp_path) == [
        "src/pkg/mod.py:Base.query(limit)", "src/pkg/mod.py:Own(d)"]
