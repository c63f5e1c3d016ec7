"""The public names that nothing but tests uses are a pinned keep-list.

ROADMAP item 6's rule: a public ``def``/``class`` in ``src/`` stays only
if ``src/``, an example, a benchmark, ``bench/`` or a spec uses it (the
CLI lives in ``src/``), or if it is a declared keeper with a reason
there.  This module runs the lean-pass scan over the repository and
asserts that what it finds is exactly :data:`KEEPERS`.

The scan matches by name: a method whose name something else also uses
(``run``, ``stop``) never shows, so its list is a set of candidates, not
proof.  A package's re-exports (``from ... import`` in an
``__init__.py``, ``__all__``, the facade's ``_FACADE``) and quoted
forward references do not count as uses.
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


def unused_public_names(root: Path) -> list[str]:
    """Sorted ``path:name`` of every public def/class under ``root/src``
    that no file under ``USERS`` uses."""
    used, defs = set(), []
    for user in USERS:
        for path in sorted((root / user).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
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
            elif path.suffix in DATA_SUFFIXES:
                used |= set(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    return sorted({d for d in defs if d.rsplit(":", 1)[1] not in used})


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
        ),
        "examples/demo.py": "from pkg import Used\nUsed()\n",
        "specs/run.yaml": "scenario: helper\n",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unused_public_names(tmp_path) == ["src/pkg/mod.py:Unused"]
