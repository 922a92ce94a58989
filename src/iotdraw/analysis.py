"""Design-space analyses over a validated model.

Deployment enumeration is a depth-first search that places components
in name order, each on its software-eligible hosts in name order, so
scenarios come out, and are numbered from 1, in the lexicographic order
of their assignments.  Each dependency edge is checked as soon as both
of its endpoints are placed, in the edge's table of allowed host pairs
(``validate.edge_table``): the provider must be reachable and the ports
able to interact, crossing a protocol boundary only where a fog can
translate.  The search is also the only scorer: it sums the same
tables' costs into a worst-case response time and multiplies platform
availabilities, and ``evaluate_scenarios`` is the search with scores.
It scores and renders as it places: each depth extends its parent's
sum, product and text, so a scenario costs one step past the prefix it
shares with its siblings, and the leaf finishes its text line and CSV
row.  Lifetime sweeps measure how a device's battery horizon moves as a
request interval or freshness window changes.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics

from .energy import lifetime_closed_form
from .engine import FreshnessPolicy, gateway_uplink, run_simulation
from .model import (
    Component, IoTSystemModel, ModelError, PeriodicRequest, PlatformTier, Record, _require_whole,
    _setattr, csv_field,
)
from .rng import SplitMix64, derive_seed
from .validate import dependency_edges, edge_table, eligible_hosts, task_binding


class DeploymentScenario(Record):
    """One complete component-to-platform assignment.

    ``assignment`` holds (component, platform) pairs sorted by component
    name; ids start at 1 and follow enumeration order.  ``availability``
    and ``response_time_ms`` are None unless the search scored the
    scenario (``evaluate_scenarios``).  ``rendered`` holds the scenario's
    finished ``scenario_text`` line and ``scenarios_to_csv`` row.  The
    search stores them on each scenario it builds, from the prefixes its
    scenarios share, so printing a scenario and writing its CSV row
    render no assignment again; any other scenario, built by hand or
    copied by ``dataclasses.replace``, renders them from
    ``assignment_texts`` when first asked.  It is not a field: equality,
    ``repr`` and ``dataclasses.replace`` ignore it.
    """

    id: int
    assignment: tuple[tuple[str, str], ...]
    availability: float | None = None
    response_time_ms: float | None = None

    def assignment_map(self) -> dict[str, str]:
        return dict(self.assignment)

    def assignment_texts(self) -> tuple[str, str]:
        """The assignment as ``C>p, C>p`` for text and as ``C=p;C=p`` for CSV."""
        pieces = [_rendered_pair(c, p, i == 0) for i, (c, p) in enumerate(self.assignment)]
        return "".join(shown for shown, _ in pieces), "".join(written for _, written in pieces)

    @functools.cached_property
    def rendered(self) -> tuple[str, str]:
        return _render(self.id, self.availability, self.response_time_ms, *self.assignment_texts())


def _rendered_pair(component: str, platform: str, first: bool) -> tuple[str, str]:
    """One pair of ``assignment_texts``, after its separator unless it comes first."""
    if first:
        return f"{component}>{platform}", f"{component}={platform}"
    return f", {component}>{platform}", f";{component}={platform}"


def enumerate_deployments(model: IoTSystemModel, scored: bool = False) -> list[DeploymentScenario]:
    """All deployment scenarios that satisfy software and connectivity needs.

    Components and platforms are considered in name order, so the
    numbering is stable for a given model.  With ``scored`` each scenario
    also carries its availability and response time, worked out as the
    search goes: the availability multiplies the distinct hosts in name
    order, and the response time sums the edges' costs in edge order.
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

    # hosts[d] is the platform of the component placed at depth d; each
    # platform provider has a fixed slot after those.  An edge between two
    # components is checked at the depth of whichever is placed later; one
    # to a platform narrows its consumer's pool.  An edge's cost is added
    # at the first depth where it and every edge before it are placed, so
    # the running sum adds the terms in edge order.  An edge's table holds
    # its allowed host pairs only.
    depth_of = {c.name: depth for depth, c in enumerate(components)}
    hosts = [""] * len(components)
    checks: list[list[tuple[int, int, dict]]] = [[] for _ in components]
    terms: list[list[tuple[int, int, dict]]] = [[] for _ in components]
    costed_by = 0
    for edge in dependency_edges(model):
        consumer = depth_of[edge.consumer]
        costs = edge_table(model, edge)
        if edge.provider_kind == "platform":
            pools[consumer] = [host for host in pools[consumer] if (host, edge.provider) in costs]
            provider, placed = len(hosts), consumer
            hosts.append(edge.provider)
        else:
            provider = depth_of[edge.provider]
            placed = max(consumer, provider)
            checks[placed].append((consumer, provider, costs))
        costed_by = max(costed_by, placed)
        terms[costed_by].append((consumer, provider, costs))

    # Availability multiplies the distinct hosts in name order.  While each
    # newly used host sorts after those already used, the search keeps the
    # running product; once one does not, the leaf multiplies afresh.
    choices = [[(host, (c.name, host), *_rendered_pair(c.name, host, depth == 0),
                 platform_availability(model.platform(host))) for host in pool]
               for depth, (c, pool) in enumerate(zip(components, pools))]
    leaf = len(components) - 1
    chosen: list[tuple[str, str]] = [("", "")] * len(components)
    # Before depth d: the response-time sum, the availability product (None
    # once out of order), its last host (names are never empty) and the texts.
    states: list[tuple] = [(0.0, 1.0, "", "", "")] * len(components)
    scenarios = []
    stack = [iter(choices[0])]
    while stack:
        depth = len(stack) - 1
        for choice in stack[-1]:
            hosts[depth] = choice[0]
            for consumer, provider, allowed in checks[depth]:
                if (hosts[consumer], hosts[provider]) not in allowed:
                    break
            else:
                break
        else:
            stack.pop()
            continue
        host, chosen[depth], shown_pair, written_pair, availability = choice
        total, product, last, shown, written = states[depth]
        for consumer, provider, costs in terms[depth]:
            total += costs[hosts[consumer], hosts[provider]]
        if product is not None and host != last:
            if host > last:
                product *= availability
                last = host
            elif host not in hosts[:depth]:
                product = None
        shown += shown_pair
        written += written_pair
        if depth < leaf:
            states[depth + 1] = (total, product, last, shown, written)
            stack.append(iter(choices[depth + 1]))
            continue
        if not scored:
            product = total = None
        elif product is None:
            product = _joint_availability(model, set(hosts[:depth + 1]))
        number = len(scenarios) + 1
        # What the constructor does, without its argument handling: a scenario has no
        # checks, and each field is set as the constructor sets it.
        scenario = object.__new__(DeploymentScenario)
        _setattr(scenario, "id", number)
        _setattr(scenario, "assignment", tuple(chosen))
        _setattr(scenario, "availability", product)
        _setattr(scenario, "response_time_ms", total)
        _setattr(scenario, "rendered", _render(number, product, total, shown, written))
        scenarios.append(scenario)
    return scenarios


def platform_availability(platform) -> float:
    """Steady-state availability from the platform's failure figures."""
    return platform.mtbf_hours / (platform.mtbf_hours + platform.mttr_hours)


def scenario_availability(model: IoTSystemModel, scenario: DeploymentScenario) -> float:
    """Joint availability: product over the distinct platforms actually used."""
    return _joint_availability(model, {platform for _, platform in scenario.assignment})


def _joint_availability(model: IoTSystemModel, platforms) -> float:
    """The product over ``platforms`` in name order, starting from 1.0."""
    result = 1.0
    for name in sorted(platforms):
        platform = model.platform(name)
        if platform is None:
            raise ModelError(f"unknown platform: {name!r}")
        result *= platform_availability(platform)
    return result


def evaluate_scenarios(model: IoTSystemModel) -> list[DeploymentScenario]:
    """Every feasible scenario, with its availability and response time.

    Response time sums, over the dependency edges in order, the latency of
    the route to the provider plus the provider's processing time.
    """
    return enumerate_deployments(model, scored=True)


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


def _render(number: int, availability: float | None, response: float | None, shown: str,
            written: str) -> tuple[str, str]:
    """The text line and CSV row of scenario ``number``, from its figures and its
    assignment as ``assignment_texts`` gives it.

    The line is ``Scenario ID: C>p, C>p``, then the figures the scenario
    has in brackets; the row leaves a figure it lacks empty.  A figure is
    its ``repr``, taken once for both.  This is the one place a scenario
    is formatted.
    """
    availability_text = "" if availability is None else repr(availability)
    response_text = "" if response is None else repr(response)
    if availability is None:
        tail = "" if response is None else f"  [response_time_ms={response_text}]"
    elif response is None:
        tail = f"  [availability={availability_text}]"
    else:
        tail = f"  [availability={availability_text} response_time_ms={response_text}]"
    return (f"Scenario {number}: {shown}{tail}",
            f"{number},{csv_field(written)},{availability_text},{response_text}")


def scenario_text(scenario: DeploymentScenario) -> str:
    """One scenario as ``Scenario ID: C>p, C>p``, then the figures it has in brackets."""
    return scenario.rendered[0]


def scenarios_to_csv(scenarios: list[DeploymentScenario]) -> str:
    """The scenarios as CSV, one ``rendered`` row each, its assignment quoted by ``csv_field``."""
    return "\n".join(["id,assignment,availability,response_time_ms",
                      *(s.rendered[1] for s in scenarios)]) + "\n"


class SweepRow(Record):
    parameter: int
    mean: float | None
    stddev: float | None
    depleted_rounds: int
    note: str = ""


class SweepTable(Record):
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
SWEEP_ROUNDS = 30  # a sweep's rounds per value unless the caller gives them


def lifetime_sweep(model: IoTSystemModel, device_name: str, *,
                   intervals: list[int] | None = None,
                   max_ages: list[int] | None = None,
                   rounds: int = SWEEP_ROUNDS, seed: int = 0) -> SweepTable:
    """Measure mean device lifetime across one varied parameter.

    Exactly one of ``intervals`` (request period sweep, caching off) or
    ``max_ages`` (freshness window sweep at the declared period) must be
    given.  Each round draws one transmission distance from
    ``SWEEP_DISTANCE_RANGE_M`` and reuses it for every parameter value, so
    the values are compared under identical conditions and only the swept
    parameter moves the result.  Each value is checked by the
    ``PeriodicRequest`` or ``FreshnessPolicy`` built from it, before any run.
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
    _require_whole(rounds, "rounds")
    _require_whole(seed, "seed")
    if rounds < 1:
        raise ModelError(f"sweep needs at least one round, got {rounds}")

    lifetimes: dict[int, list[int]] = {value: [] for value in values}
    # One model per value, shared by its rounds, so each keeps its derived facts (routes).
    runs = {value: (_with_interval(model, component.name, value), FreshnessPolicy(0))
            if intervals is not None else (model, FreshnessPolicy(value)) for value in values}
    lo, hi = SWEEP_DISTANCE_RANGE_M
    halt_on = frozenset((device_name,))
    for round_index in range(rounds):
        distance = SplitMix64(derive_seed(seed, "distance", round_index)).uniform(lo, hi)
        overrides = {device_name: distance}  # every run of the round reads it, none changes it
        run_seed = derive_seed(seed, "run", round_index)
        for value, (variant, freshness) in runs.items():
            report = run_simulation(variant, freshness=freshness, halt_on=halt_on, seed=run_seed,
                                    sink=None, distance_overrides=overrides)
            lifetime = report.lifetimes[device_name]
            if lifetime is not None:
                lifetimes[value].append(lifetime)

    rows = []
    for value in values:
        observed = lifetimes[value]
        censored = rounds - len(observed)
        note = f"{censored} round(s) outlived the horizon" if censored else ""
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
