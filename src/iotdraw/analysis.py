"""Design-space analyses over a validated model.

Deployment enumeration walks every assignment of components to
platforms, keeps the ones where each host carries the component's
required software and every consumed service stays reachable over the
network (crossing a protocol boundary only where a fog can translate),
and numbers the survivors in lexicographic order.  The metric functions
then score a scenario by joint platform availability and by worst-case
response time, and lifetime sweeps measure how a device's battery
horizon moves as a request interval or freshness window changes.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import statistics
from dataclasses import dataclass

from .energy import lifetime_closed_form
from .engine import FreshnessPolicy, gateway_uplink, run_simulation
from .model import Component, IoTSystemModel, ModelError, PeriodicRequest, PlatformTier
from .rng import SplitMix64, derive_seed
from .validate import dependency_edges, edge_allows, eligible_hosts, route_between, task_binding


@dataclass(frozen=True)
class DeploymentScenario:
    """One complete component-to-platform assignment.

    ``assignment`` holds (component, platform) pairs sorted by component
    name; ids start at 1 and follow enumeration order.
    """

    id: int
    assignment: tuple[tuple[str, str], ...]
    availability: float | None = None
    response_time_ms: float | None = None

    def assignment_map(self) -> dict[str, str]:
        return dict(self.assignment)


def _provider_host(edge, assignment: dict[str, str]) -> str:
    """Where an edge's provider runs under an assignment."""
    return edge.provider if edge.provider_kind == "platform" else assignment[edge.provider]


def enumerate_deployments(model: IoTSystemModel) -> list[DeploymentScenario]:
    """All deployment scenarios that satisfy software and connectivity needs.

    Components and platforms are considered in name order, so the
    numbering is stable for a given model.
    """
    components = sorted(model.all_components(), key=lambda c: c.name)
    if not components:
        return []
    pools = []
    for component in components:
        pool = [p.name for p in eligible_hosts(model, component)]
        if not pool:
            return []
        pools.append(pool)

    edges = dependency_edges(model)
    names = [c.name for c in components]
    scenarios = []
    for choice in itertools.product(*pools):
        assignment = dict(zip(names, choice))
        for edge in edges:
            if not edge_allows(model, edge, assignment[edge.consumer],
                               _provider_host(edge, assignment)):
                break
        else:
            scenarios.append(DeploymentScenario(
                id=len(scenarios) + 1,
                assignment=tuple(sorted(assignment.items())),
            ))
    return scenarios


def platform_availability(platform) -> float:
    """Steady-state availability from the platform's failure figures."""
    return platform.mtbf_hours / (platform.mtbf_hours + platform.mttr_hours)


def scenario_availability(model: IoTSystemModel, scenario: DeploymentScenario) -> float:
    """Joint availability: product over the distinct platforms actually used."""
    used = sorted({platform for _, platform in scenario.assignment})
    result = 1.0
    for name in used:
        result *= platform_availability(model.platform(name))
    return result


def _processing_time_ms(model: IoTSystemModel, edge, assignment: dict[str, str]) -> float:
    """Time the provider spends producing its answer."""
    if edge.provider_kind == "component":
        component = model.component(edge.provider)
        host = model.platform(assignment[edge.provider])
        return component.mean_cpu_demand_cycles / (host.cpu_frequency_ghz * 1e9) * 1000.0
    platform = model.platform(edge.provider)
    if platform.tier is PlatformTier.DEVICE:
        return platform.energy.sense_duration_ms
    return 0.0


def _response_time(model: IoTSystemModel, edges, assignment: dict[str, str]) -> float:
    """Sum of network latency plus provider processing time over all
    service dependencies; infinite when some provider is unreachable."""
    total = 0.0
    for edge in edges:
        route = route_between(model, assignment[edge.consumer], _provider_host(edge, assignment))
        if route is None:
            return math.inf
        total += route.latency_ms + _processing_time_ms(model, edge, assignment)
    return total


def evaluate_scenarios(model: IoTSystemModel,
                       scenarios: list[DeploymentScenario] | None = None
                       ) -> list[DeploymentScenario]:
    """Fill in availability and response time for each scenario."""
    if scenarios is None:
        scenarios = enumerate_deployments(model)
    edges = dependency_edges(model)
    return [dataclasses.replace(
        s,
        availability=scenario_availability(model, s),
        response_time_ms=_response_time(model, edges, s.assignment_map()),
    ) for s in scenarios]


RANK_METRICS = ("availability", "response-time")


def rank_scenarios(scenarios: list[DeploymentScenario],
                   metric: str) -> list[DeploymentScenario]:
    """Order scenarios best-first by one metric; ties keep ascending id."""
    if metric not in RANK_METRICS:
        raise ModelError(f"unknown ranking metric {metric!r}; expected one of {RANK_METRICS}")
    for s in scenarios:
        if s.availability is None or s.response_time_ms is None:
            raise ModelError(f"scenario {s.id} has no computed metrics; "
                             "evaluate scenarios before ranking")
    if metric == "availability":
        return sorted(scenarios, key=lambda s: (-s.availability, s.id))
    return sorted(scenarios, key=lambda s: (s.response_time_ms, s.id))


def scenario_text(scenario: DeploymentScenario) -> str:
    pairs = ", ".join(f"{component}>{platform}"
                      for component, platform in scenario.assignment)
    extras = []
    if scenario.availability is not None:
        extras.append(f"availability={scenario.availability!r}")
    if scenario.response_time_ms is not None:
        extras.append(f"response_time_ms={scenario.response_time_ms!r}")
    suffix = f"  [{' '.join(extras)}]" if extras else ""
    return f"Scenario {scenario.id}: {pairs}{suffix}"


def scenarios_to_csv(scenarios: list[DeploymentScenario]) -> str:
    lines = ["id,assignment,availability,response_time_ms"]
    for s in scenarios:
        assignment = ";".join(f"{c}={p}" for c, p in s.assignment)
        availability = "" if s.availability is None else repr(s.availability)
        response = "" if s.response_time_ms is None else repr(s.response_time_ms)
        lines.append(f"{s.id},{assignment},{availability},{response}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SweepRow:
    parameter: int
    mean: float | None
    stddev: float | None
    depleted_rounds: int
    note: str = ""


@dataclass(frozen=True)
class SweepTable:
    parameter_name: str  # interval_ticks or max_age_ticks
    device: str
    rounds: int
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        lines = ["parameter,mean_lifetime_ticks,stddev"]
        for row in self.rows:
            mean = "" if row.mean is None else repr(row.mean)
            stddev = "" if row.stddev is None else repr(row.stddev)
            lines.append(f"{row.parameter},{mean},{stddev}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"lifetime of {self.device!r} against {self.parameter_name} "
                 f"({self.rounds} rounds per value)"]
        for row in self.rows:
            if row.mean is None:
                body = "never depleted within the horizon"
            else:
                body = f"mean {row.mean:.1f} ticks, stddev {row.stddev:.1f}"
            note = f"  ({row.note})" if row.note else ""
            lines.append(f"  {self.parameter_name}={row.parameter}: {body}{note}")
        return "\n".join(lines)


def device_periodic_component(model: IoTSystemModel, device_name: str) -> Component:
    """The one component whose periodic request is served by this device."""
    platform = model.platform(device_name)
    if platform is None or platform.tier is not PlatformTier.DEVICE:
        raise ModelError(f"{device_name!r} is not a device")
    matches = []
    for component in model.all_components():
        if component.periodic_request is None:
            continue
        binding = task_binding(model, component.periodic_request.task)
        if binding.provider.kind == "platform" and binding.provider.name == device_name:
            matches.append(component)
    if not matches:
        raise ModelError(f"no periodic request is served by device {device_name!r}")
    if len(matches) > 1:
        names = ", ".join(c.name for c in matches)
        raise ModelError(f"device {device_name!r} serves several periodic requests ({names}); "
                         "a lifetime sweep needs exactly one")
    return matches[0]


def _with_interval(model: IoTSystemModel, component_name: str,
                   interval_ticks: int) -> IoTSystemModel:
    """A copy of the model with one component's request interval changed."""
    applications = []
    for app in model.applications:
        components = []
        for component in app.components:
            if component.name == component_name:
                request = PeriodicRequest(component.periodic_request.task, interval_ticks)
                component = dataclasses.replace(component, periodic_request=request)
            components.append(component)
        applications.append(dataclasses.replace(app, components=tuple(components)))
    return dataclasses.replace(model, applications=tuple(applications))


SWEEP_DISTANCE_RANGE_M = (1.0, 50.0)


def lifetime_sweep(model: IoTSystemModel, device_name: str, *,
                   intervals: list[int] | None = None,
                   max_ages: list[int] | None = None,
                   rounds: int = 30, seed: int = 0) -> SweepTable:
    """Measure mean device lifetime across one varied parameter.

    Exactly one of ``intervals`` (request period sweep, caching off) or
    ``max_ages`` (freshness window sweep at the declared period) must be
    given.  Each round draws one transmission distance from
    ``SWEEP_DISTANCE_RANGE_M`` and reuses it for every parameter value, so
    the values are compared under identical conditions and only the swept
    parameter moves the result.
    """
    if (intervals is None) == (max_ages is None):
        raise ModelError("sweep exactly one of intervals or max_ages")
    component = device_periodic_component(model, device_name)
    if intervals is not None:
        parameter_name, values = "interval_ticks", list(intervals)
    else:
        parameter_name, values = "max_age_ticks", list(max_ages)
    if not values:
        raise ModelError("sweep needs at least one parameter value")
    if len(set(values)) < len(values):
        raise ModelError(f"sweep values repeat: {values}")
    if rounds < 1:
        raise ModelError(f"sweep needs at least one round, got {rounds}")
    for value in values:
        if value < (1 if intervals is not None else 0):
            raise ModelError(f"bad sweep value {value} for {parameter_name}")

    lifetimes: dict[int, list[int]] = {value: [] for value in values}
    censored: dict[int, int] = {value: 0 for value in values}
    lo, hi = SWEEP_DISTANCE_RANGE_M
    for round_index in range(rounds):
        distance = SplitMix64(derive_seed(seed, "distance", round_index)).uniform(lo, hi)
        run_seed = derive_seed(seed, "run", round_index)
        for value in values:
            if intervals is not None:
                variant = _with_interval(model, component.name, value)
                freshness = FreshnessPolicy(0)
            else:
                variant = model
                freshness = FreshnessPolicy(value)
            report = run_simulation(variant, freshness=freshness, halt_on={device_name},
                                    seed=run_seed, sink=None,
                                    distance_overrides={device_name: distance})
            lifetime = report.lifetimes.get(device_name)
            if lifetime is None:
                censored[value] += 1
            else:
                lifetimes[value].append(lifetime)

    rows = []
    for value in values:
        observed = lifetimes[value]
        note = ""
        if censored[value]:
            note = f"{censored[value]} round(s) outlived the horizon"
        rows.append(SweepRow(
            parameter=value,
            mean=statistics.fmean(observed) if observed else None,
            stddev=statistics.pstdev(observed) if observed else None,
            depleted_rounds=len(observed),
            note=note,
        ))
    return SweepTable(parameter_name=parameter_name, device=device_name,
                      rounds=rounds, rows=tuple(rows))


def predicted_lifetime(model: IoTSystemModel, device_name: str,
                       distance_m: float | None = None) -> int | None:
    """Closed-form lifetime estimate for the device's periodic request.

    Multiplies the request interval by how many full sense/transmit
    cycles the battery budget covers.  None when the per-request drain
    is zero or the device has no usable uplink.
    """
    component = device_periodic_component(model, device_name)
    platform = model.platform(device_name)
    if distance_m is None:
        uplink = gateway_uplink(model, platform)
        if uplink is None:
            return None
        distance_m = uplink[1]
    return lifetime_closed_form(platform.energy, distance_m,
                                component.periodic_request.interval_ticks)
