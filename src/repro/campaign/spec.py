"""Declarative experiment-campaign specs.

A campaign is a parameter grid over a registered scenario: the cartesian
product of the ``grid`` axes, times the ``seeds`` list, is the set of
runs.  Specs are small YAML/JSON files (or plain dicts) so a whole study
-- the paper's consolidation-vs-congestion sweep, an MTBF availability
campaign, a perf envelope -- is one committed, reviewable artifact, and
a CI smoke job is one ``repro campaign run specs/<job>.yaml`` line.

Run identity is content-addressed: :attr:`RunSpec.run_id` is a SHA-256
prefix over (campaign name, scenario, canonical parameters, seed), so
rerunning the same spec yields the same IDs and a result store can be
diffed run-for-run against a committed baseline.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.config import SimBudgetConfig
from repro.errors import CampaignError

# Scalar values allowed in grids/params: everything JSON round-trips.
_SCALAR_TYPES = (str, int, float, bool, type(None))


def _canonical_json(value: Any) -> str:
    """Deterministic JSON used for run-ID hashing and cell keys."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _check_scalars(mapping: Mapping[str, Any], where: str) -> None:
    for key, value in mapping.items():
        if not isinstance(key, str):
            raise CampaignError(f"{where} keys must be strings, got {key!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise CampaignError(
                f"{where}[{key!r}] must be a JSON scalar "
                f"(str/int/float/bool/null), got {type(value).__name__}"
            )


@dataclass(frozen=True)
class RunSpec:
    """One fully-resolved cell x seed of a campaign grid."""

    campaign: str
    scenario: str
    index: int                    # position in the expanded grid (0-based)
    cell: Dict[str, Any]          # the grid axes' values for this cell
    params: Dict[str, Any]        # fixed params merged with the cell
    seed: int

    @property
    def run_id(self) -> str:
        """Deterministic content hash: same spec + seed -> same ID."""
        payload = _canonical_json({
            "campaign": self.campaign,
            "scenario": self.scenario,
            "params": self.params,
            "seed": self.seed,
        })
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True, kw_only=True)
class CampaignSpec:
    """A declarative experiment campaign (see ``docs/campaigns.md``).

    ``grid`` maps parameter names to lists of values; the campaign runs
    the cartesian product, each cell once per seed in ``seeds``.
    ``params`` are fixed for every run and may be overridden by a grid
    axis of the same name.  ``budget`` bounds every *individual* run via
    the kernel's :class:`~repro.core.config.SimBudgetConfig`;
    ``run_timeout_s`` is the per-run wall-clock kill switch enforced by
    the parent, and ``retries`` is how many times a crashed or timed-out
    run is re-attempted before a failure record is written.
    """

    name: str
    scenario: str
    description: str = ""
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)
    budget: SimBudgetConfig = field(default_factory=SimBudgetConfig)
    workers: int = 2
    run_timeout_s: Optional[float] = None
    retries: int = 1
    trace: bool = False
    baseline: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign spec needs a non-empty name")
        if not self.scenario:
            raise CampaignError(f"campaign {self.name!r} names no scenario")
        if self.workers < 1:
            raise CampaignError(f"workers must be >= 1, got {self.workers}")
        if self.retries < 0:
            raise CampaignError(f"retries must be >= 0, got {self.retries}")
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise CampaignError(
                f"run_timeout_s must be > 0, got {self.run_timeout_s}"
            )
        if not self.seeds:
            raise CampaignError(f"campaign {self.name!r} has no seeds")
        for seed in self.seeds:
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise CampaignError(f"seeds must be integers, got {seed!r}")
        _check_scalars(self.params, "params")
        for axis, values in self.grid.items():
            if not isinstance(axis, str):
                raise CampaignError(f"grid axes must be strings, got {axis!r}")
            if not isinstance(values, (list, tuple)) or not values:
                raise CampaignError(
                    f"grid axis {axis!r} must be a non-empty list, "
                    f"got {values!r}"
                )
            for value in values:
                if not isinstance(value, _SCALAR_TYPES):
                    raise CampaignError(
                        f"grid[{axis!r}] values must be JSON scalars, "
                        f"got {type(value).__name__}"
                    )

    # -- grid expansion ---------------------------------------------------

    @property
    def cell_count(self) -> int:
        count = 1
        for values in self.grid.values():
            count *= len(values)
        return count

    @property
    def run_count(self) -> int:
        return self.cell_count * len(self.seeds)

    def expand(self) -> List[RunSpec]:
        """The full run list: grid cells x seeds, in deterministic order.

        Axes iterate in sorted-name order, values in spec order, seeds
        innermost -- so the expansion (and every run's ``index``) is
        stable across reruns of the same spec.
        """
        axes = sorted(self.grid)
        runs: List[RunSpec] = []
        value_lists = [self.grid[axis] for axis in axes]
        for combo in itertools.product(*value_lists):
            cell = dict(zip(axes, combo))
            params = {**self.params, **cell}
            for seed in self.seeds:
                runs.append(RunSpec(
                    campaign=self.name, scenario=self.scenario,
                    index=len(runs), cell=cell, params=params,
                    seed=int(seed),
                ))
        return runs

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any],
                  source: Optional[str] = None) -> "CampaignSpec":
        """Build a spec from a parsed YAML/JSON mapping (validated)."""
        if not isinstance(raw, Mapping):
            raise CampaignError(
                f"campaign spec must be a mapping, got {type(raw).__name__}"
                + (f" (from {source})" if source else "")
            )
        data = dict(raw)
        budget_raw = data.pop("budget", None) or {}
        if not isinstance(budget_raw, Mapping):
            raise CampaignError("spec 'budget' must be a mapping of "
                                "max_events/max_sim_time_s/max_wall_s")
        unknown_budget = set(budget_raw) - {
            "max_events", "max_sim_time_s", "max_wall_s"
        }
        if unknown_budget:
            raise CampaignError(
                f"unknown budget keys: {sorted(unknown_budget)}"
            )
        known = {
            "name", "scenario", "description", "grid", "params", "seeds",
            "workers", "run_timeout_s", "retries", "trace", "baseline",
        }
        unknown = set(data) - known
        if unknown:
            raise CampaignError(
                f"unknown campaign spec keys: {sorted(unknown)} "
                f"(known: {sorted(known | {'budget'})})"
            )
        try:
            return cls(budget=SimBudgetConfig(**budget_raw), **data)
        except TypeError as exc:
            raise CampaignError(f"malformed campaign spec: {exc}") from exc

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load a spec from a ``.yaml``/``.yml``/``.json`` file."""
        path = Path(path)
        if not path.exists():
            raise CampaignError(f"campaign spec not found: {path}")
        text = path.read_text(encoding="utf-8")
        if path.suffix in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover - yaml is baked in
                raise CampaignError(
                    f"PyYAML is unavailable; convert {path} to JSON"
                ) from exc
            try:
                raw = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise CampaignError(f"invalid YAML in {path}: {exc}") from exc
        else:
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise CampaignError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(raw, source=str(path))


def load_spec(source: Union[str, Path, Mapping[str, Any]]) -> CampaignSpec:
    """Coerce a path or mapping into a :class:`CampaignSpec`."""
    if isinstance(source, Mapping):
        return CampaignSpec.from_dict(source)
    return CampaignSpec.load(source)
