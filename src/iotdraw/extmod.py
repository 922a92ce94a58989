"""Pluggable analysis modules invoked once per simulation run.

A module is a named hook taking a read-only snapshot of the system and
returning its findings as text (the built-ins return CSV).  Hooks see the
run's model, which is immutable, and their own copy of the battery
levels, so nothing a hook does can disturb the run that invoked it.  The
model's derived facts (routes, edge tables, its compiled run program) are
shared with the run, and a hook may run its snapshot's model itself.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .analysis import enumerate_deployments, evaluate_scenarios, rank_scenarios, scenarios_to_csv
from .model import IoTSystemModel, ModelError, Record


class SystemSnapshot(Record):
    """What an execution module is allowed to look at."""

    model: IoTSystemModel
    tick: int
    residual_energy_mah: dict[str, float]


Hook = Callable[[SystemSnapshot], str]


class ModuleRegistry:
    """Name-to-hook table used to resolve declared execution modules."""

    def __init__(self):
        self._hooks: dict[str, Hook] = {}

    def names(self) -> list[str]:
        return sorted(self._hooks)

    def resolve(self, name: str) -> Hook:
        try:
            return self._hooks[name]
        except KeyError:
            known = ", ".join(self.names()) or "none"
            raise ModelError(f"unknown execution module {name!r} (registered: {known})") from None


def register_module(registry: ModuleRegistry, name: str, hook: Hook) -> ModuleRegistry:
    if not name:
        raise ModelError("execution module needs a name")
    if name in registry._hooks:
        raise ModelError(f"execution module {name!r} is already registered")
    registry._hooks[name] = hook
    return registry


def take_snapshot(state) -> SystemSnapshot:
    """Freeze the interesting parts of a simulation for hooks, which run before tick 0."""
    return SystemSnapshot(
        model=state.model,
        tick=0,
        residual_energy_mah={name: cell.residual_mah for name, cell in state.devices.items()},
    )


def _deployment_scenarios(snapshot: SystemSnapshot) -> str:
    return scenarios_to_csv(enumerate_deployments(snapshot.model))


def _ranked_scenarios(metric: str, snapshot: SystemSnapshot) -> str:
    """The scored scenarios as CSV, best first by ``metric`` (bound per hook)."""
    return scenarios_to_csv(rank_scenarios(evaluate_scenarios(snapshot.model), metric))


def default_registry() -> ModuleRegistry:
    """A fresh registry holding the built-in analyses."""
    registry = ModuleRegistry()
    register_module(registry, "DeploymentScenarios", _deployment_scenarios)
    register_module(registry, "AvailabilityAnalysis", partial(_ranked_scenarios, "availability"))
    register_module(registry, "ResponseTimeAnalysis", partial(_ranked_scenarios, "response-time"))
    return registry
