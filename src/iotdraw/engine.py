"""Discrete-event execution of a system model.

A run covers ticks 0 through ``simulation_time`` inclusive.  Before
tick 0, every periodic request and every event request is compiled once
into a request program: its event kind, consumer and log detail, the
contract's sense and actuate tasks as plain tuples, and the provider's
device cell, or None when the provider is not a device.  A device cell
holds the battery's residual charge and depleted flag, the mAh one
sensing and one transmission cost, the sample stream and the cached
reading.  Each periodic program keeps the tick it fires next: a
component with interval k fires at ticks k-1, 2k-1, 3k-1, ..., programs
due on the same tick fire in declaration order, and ticks on which
nothing fires are never visited.

Requests served by a device follow the data-freshness rule: if a cached
reading is at most ``max_age_ticks`` old the consumer gets the cached
value and the device is not touched; otherwise the device senses a new
value (draining sense energy, then transmission energy over its gateway
link) and the cache is refreshed.  A device whose battery has fallen to
its depletion threshold stops serving: later requests fail rather than
drain a dead battery, though still-fresh cached readings remain usable.

Event requests piggyback on delivered samples: whenever a periodic
request in the same application delivers a value whose message carries
the condition's field, the condition is evaluated against that value
and, when satisfied, the event task is requested in turn (an alarm
actuation, typically).  The delivered scalar stands for every field of
the message record during evaluation.

Each event goes to the run's sink as one ``SimEvent`` row, ``(tick, kind,
subject, detail)``, the moment it happens.  There are three sinks.  The
default, ``COLLECT``, keeps every row on ``SimulationReport.events``.  Any
callable that takes a row streams the log instead: ``csv_event_sink(handle)``
writes each row to an open text file as it comes, so the log never sits in
memory, and ``simulate --log`` runs on it.  ``None`` keeps only the event
counts; such a run ends early once it settles: when the provider of every
periodic request is either not a device, or a depleted device with no cached
reading young enough to serve again.  Depleted batteries never recover, so
every later firing is a request that delivers nothing; those are counted in
closed form and the report equals that of the full run.

Declared execution modules run exactly once, before tick 0; an unknown
module name aborts the run before any tick executes.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Collection, Mapping, NamedTuple, TextIO

from .energy import drain_mah, joules_to_mah, sense_energy, transmit_energy
from .model import (
    Component, ConditionExpr, ConstantSource, IoTSystemModel, ModelError, Platform,
    PlatformTier, ServiceContract, TaskKind, UniformSource,
)
from .rng import SplitMix64, derive_seed
from .validate import task_binding


class EventKind(Enum):
    PERIODIC_REQUEST = "PeriodicRequest"
    EVENT_REQUEST = "EventRequest"
    CACHE_HIT = "CacheHit"
    SENSE_SAMPLE = "SenseSample"
    ACTUATION = "Actuation"
    DEVICE_DEPLETED = "DeviceDepleted"
    MODULE_OUTPUT = "ModuleOutput"


# Plain strings for the request loop: they hash far faster than enum members.
_SENSED, _HIT, _ACTUATED, _DEPLETED = (kind.value for kind in (
    EventKind.SENSE_SAMPLE, EventKind.CACHE_HIT, EventKind.ACTUATION, EventKind.DEVICE_DEPLETED))


class SimEvent(NamedTuple):
    """One event-log row; its field names are the CSV header."""

    tick: int
    kind: str
    subject: str
    detail: str = ""


EventSink = Callable[[SimEvent], object]
COLLECT = object()  # the default sink: keep every event on ``SimulationReport.events``


def csv_event_sink(handle: TextIO) -> EventSink:
    """Write the event log's header to ``handle``; return the sink that writes each row.

    This is the one CSV rule for event logs: ``SimulationReport.events_csv``
    and ``simulate --log`` both go through it.
    """
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(SimEvent._fields)
    return writer.writerow


@dataclass(frozen=True)
class FreshnessPolicy:
    """Cache acceptance window in ticks; 0 disables caching entirely."""

    max_age_ticks: int = 0

    def __post_init__(self):
        if self.max_age_ticks < 0:
            raise ModelError(f"max age cannot be negative: {self.max_age_ticks}")


class SampleStream:
    """Draw state for one device's data source; ``next()`` gives the next reading."""

    __slots__ = ("source", "next")

    def __init__(self, source, fallback_seed: int):
        self.source = source
        if isinstance(source, ConstantSource):
            self.next = itertools.repeat(source.value).__next__
        elif isinstance(source, UniformSource):
            rng = SplitMix64(fallback_seed if source.seed is None else source.seed)
            self.next = functools.partial(rng.uniform, source.lo, source.hi)
        else:
            self.next = itertools.cycle(source.values).__next__


_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "!=": operator.ne,
}


class _DeviceCell:
    """One device's run-time state, with its per-request costs worked out once."""

    __slots__ = ("name", "residual_mah", "depleted", "threshold_mah", "sense_mah",
                 "transmit_mah", "sense_detail", "sample", "cached_value", "cached_at", "halts")

    def __init__(self, platform: Platform, distance_m: float | None, stream: SampleStream,
                 halts: bool):
        profile = platform.energy
        sense = sense_energy(profile)
        transmit = transmit_energy(profile, distance_m) if distance_m is not None else None
        self.name = platform.name
        self.threshold_mah = profile.depletion_threshold_mah
        self.residual_mah, self.depleted = drain_mah(profile.residual_energy_mah,
                                                     self.threshold_mah)
        self.sense_mah = joules_to_mah(sense, profile.supply_voltage_v)
        # None when the device has no link: it can neither report nor be told anything.
        self.transmit_mah = (joules_to_mah(transmit, profile.supply_voltage_v)
                             if transmit is not None else None)
        self.sense_detail = (f"sense_j={sense!r} transmit_j={transmit!r} "
                             f"distance_m={distance_m!r}" if transmit is not None else "")
        self.sample = stream.next
        self.cached_value = self.cached_at = None  # the last reading and its tick
        self.halts = halts


@dataclass
class SimulationState:
    """Everything that changes during a run; the model itself never does."""

    model: IoTSystemModel
    freshness: FreshnessPolicy
    devices: dict[str, _DeviceCell] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    lifetimes: dict[str, int] = field(default_factory=dict)
    module_outputs: dict[str, str] = field(default_factory=dict)
    halted_by: str | None = None


def gateway_uplink(model: IoTSystemModel, device: Platform) -> tuple[float, float] | None:
    """The device's uplink: (latency, distance) of its best incident link.

    Ties on latency break by neighbor name, so the choice is stable.
    """
    best = None
    for link in model.networks:
        if device.name not in link.endpoints:
            continue
        other = link.endpoint_b if link.endpoint_a == device.name else link.endpoint_a
        key = (link.latency_ms, other)
        if best is None or key < best[0]:
            best = (key, link.distance_m)
    if best is None:
        return None
    return best[0][0], best[1]


def initial_state(model: IoTSystemModel, *, freshness: FreshnessPolicy | None = None,
                  halt_on: Collection[str] = (), seed: int | None = None,
                  distance_overrides: Mapping[str, float] | None = None) -> SimulationState:
    """Set up batteries, sample streams, and gateway energies for a run.

    ``seed`` overrides the model's configured seed; ``distance_overrides``
    maps device names to a transmission distance in meters replacing the
    gateway link's distance (used by lifetime sweeps).  A device with no
    link keeps none: it has no gateway to transmit to.  The run halts
    when a device named in ``halt_on`` depletes.
    """
    run_seed = model.sim_config.rng_seed if seed is None else seed
    overrides = distance_overrides or {}
    halt_on = frozenset(halt_on)
    state = SimulationState(model=model, freshness=freshness or FreshnessPolicy(0))
    for platform in model.platforms:
        if platform.tier is not PlatformTier.DEVICE:
            continue
        gateway = gateway_uplink(model, platform)
        state.devices[platform.name] = _DeviceCell(
            platform,
            overrides.get(platform.name, gateway[1]) if gateway else None,
            SampleStream(platform.data_source, derive_seed(run_seed, "source", platform.name)),
            platform.name in halt_on,
        )
    unknown = halt_on - state.devices.keys()
    if unknown:
        raise ModelError(f"cannot halt on {', '.join(sorted(unknown))}: not a device")
    return state


@dataclass(frozen=True, slots=True)
class _Request:
    """One request compiled before tick 0: what it logs and what it asks of its provider."""

    kind: str
    consumer: str
    detail: str
    cell: _DeviceCell | None  # None when the provider is not a device
    tasks: tuple[tuple[str, str], ...]  # (_SENSED, "") or (_ACTUATED, log detail)
    has_sense: bool
    needs_link: bool  # a sense or actuate task must cross the device's link


@dataclass(frozen=True, slots=True)
class _Plan:
    """A periodic request, with the (test, threshold, event request) its readings feed."""

    interval: int
    request: _Request
    watchers: tuple[tuple[Callable[[float, float], bool], float, _Request], ...]


def _compile(state: SimulationState, kind: EventKind, consumer: Component, task: str,
             condition: ConditionExpr | None = None) -> tuple[_Request, ServiceContract]:
    """The request program for one task, and the contract it runs."""
    binding = task_binding(state.model, task)
    cell = None
    if binding.provider.kind == "platform":
        provider = state.model.platform(binding.provider.name)
        if provider.tier is PlatformTier.DEVICE:
            cell = state.devices[provider.name]
    # Transmit, receive and compute tasks are bookkept by the request itself.
    tasks = tuple((_SENSED, "") if t.kind is TaskKind.SENSE
                  else (_ACTUATED, f"task={t.name} by={consumer.name}")
                  for t in binding.contract.tasks
                  if t.kind is TaskKind.SENSE or t.kind is TaskKind.ACTUATE)
    detail = f"task={binding.task.name} provider={binding.provider.name}"
    if condition is not None:
        detail += f" condition={condition.render()}"
    request = _Request(kind.value, consumer.name, detail, cell, tasks,
                       has_sense=(_SENSED, "") in tasks, needs_link=bool(tasks))
    return request, binding.contract


def _build_plans(state: SimulationState) -> list[_Plan]:
    """Compile every periodic request, with the event requests its samples feed."""
    plans = []
    for app in state.model.applications:
        watchers = []
        for component in app.components:
            if component.event_request is None:
                continue
            condition = component.event_request.condition
            request, _ = _compile(state, EventKind.EVENT_REQUEST, component,
                                  component.event_request.task, condition)
            watchers.append((condition, request))
        for component in app.components:
            if component.periodic_request is None:
                continue
            request, contract = _compile(state, EventKind.PERIODIC_REQUEST, component,
                                         component.periodic_request.task)
            fields = contract.message_type.field_names()
            plans.append(_Plan(
                interval=component.periodic_request.interval_ticks,
                request=request,
                watchers=tuple((_OPS[c.op], c.threshold, w) for c, w in watchers
                               if c.field in fields),
            ))
    return plans


def run_simulation(model: IoTSystemModel, freshness: FreshnessPolicy | None = None,
                   halt_on: Collection[str] = (), *, seed: int | None = None,
                   registry=None, distance_overrides: Mapping[str, float] | None = None,
                   sink: EventSink | None = COLLECT) -> "SimulationReport":
    """Execute the model for ticks 0..simulation_time and report what happened.

    Identical inputs (model, seed, freshness policy) produce identical
    reports and byte-identical event logs.  The run halts as soon as a
    device named in ``halt_on`` depletes.  ``registry`` supplies
    the execution-module hooks; the default registry carries the built-in
    analyses.  ``sink`` receives each event as it happens: ``COLLECT``
    keeps them on ``report.events``, a callable gets each ``SimEvent``
    row (and ``report.events`` stays empty), and None keeps only the
    event counts, which makes multi-hundred-thousand-tick runs cheap.
    """
    state = initial_state(model, freshness=freshness, halt_on=halt_on,
                          seed=seed, distance_overrides=distance_overrides)
    plans = _build_plans(state)
    events: list[SimEvent] = []
    log = events.append if sink is COLLECT else sink
    record = log is not None
    counts = state.counts

    # Execution modules run once, before the loop; resolve all of them
    # first so an unknown name aborts before tick 0.
    declared = model.sim_config.execution_modules
    if declared:
        from . import extmod  # deferred: extmod pulls in the analyses
        reg = registry if registry is not None else extmod.default_registry()
        resolved = [(em.module, reg.resolve(em.module)) for em in declared]
        snapshot = extmod.take_snapshot(state)
        for name, hook in resolved:
            output = hook(snapshot)
            state.module_outputs[name] = output
            counts[EventKind.MODULE_OUTPUT.value] += 1
            if record:
                log(SimEvent(0, EventKind.MODULE_OUTPUT.value, name, output))

    max_age = state.freshness.max_age_ticks
    lifetimes = state.lifetimes
    settling = False  # a counts-only run checks for settling once a device depletes

    def serve(request: _Request, now: int, note: str = "") -> float | None:
        """Run one request at tick ``now``; the reading it delivers, if any."""
        nonlocal settling
        counts[request.kind] += 1
        cell = request.cell
        failure = None
        fresh = False
        if cell is not None:
            if (request.has_sense and max_age and cell.cached_at is not None
                    and now - cell.cached_at <= max_age):
                fresh = True  # servable from cache regardless of the device's health
            elif cell.depleted:
                failure = "provider-depleted"
            elif request.needs_link and cell.transmit_mah is None:
                failure = "no-route"
        if record:
            suffix = f" status=failed:{failure}" if failure else ""
            log(SimEvent(now, request.kind, request.consumer, request.detail + note + suffix))
        if cell is None or failure:
            return None
        value = None
        for task, action in request.tasks:
            if task == _ACTUATED:
                counts[_ACTUATED] += 1
                if record:
                    log(SimEvent(now, _ACTUATED, cell.name, action))
                continue
            if fresh:
                value = cell.cached_value
                counts[_HIT] += 1
                if record:
                    log(SimEvent(now, _HIT, cell.name, f"value={value!r} "
                                 f"age={now - cell.cached_at} consumer={request.consumer}"))
                continue
            value = cell.sample()
            counts[_SENSED] += 1
            if record:
                log(SimEvent(now, _SENSED, cell.name,
                             f"value={value!r} {cell.sense_detail} consumer={request.consumer}"))
            was_depleted = cell.depleted
            cell.residual_mah, cell.depleted = drain_mah(cell.residual_mah, cell.threshold_mah,
                                                         cell.sense_mah, cell.transmit_mah)
            if cell.depleted and not was_depleted:
                lifetimes[cell.name] = now
                counts[_DEPLETED] += 1
                if record:
                    log(SimEvent(now, _DEPLETED, cell.name,
                                 f"residual_mah={cell.residual_mah!r}"))
                if cell.halts and state.halted_by is None:
                    state.halted_by = cell.name
                settling = not record
            cell.cached_value, cell.cached_at = value, now
            if max_age:
                fresh = True  # age 0: a later sense task of this contract is served from it
        return value

    horizon = model.sim_config.simulation_time
    due = [plan.interval - 1 for plan in plans]
    cells = [plan.request.cell for plan in plans if plan.request.cell is not None]
    tick = horizon
    while plans:
        now = min(due)
        if now > horizon:
            break
        for index, plan in enumerate(plans):
            if due[index] != now:
                continue
            due[index] = now + plan.interval
            value = serve(plan.request, now)
            if value is not None:
                for test, threshold, watcher in plan.watchers:
                    if test(value, threshold):
                        serve(watcher, now, f" value={value!r}" if record else "")
            if state.halted_by is not None:
                break
        if state.halted_by is not None:
            tick = now
            break
        if settling and all(c.depleted and (c.cached_at is None or now - c.cached_at >= max_age)
                            for c in cells):
            # Settled: each remaining firing is a request that delivers nothing.
            remaining = sum((horizon - d) // plan.interval + 1
                            for d, plan in zip(due, plans) if d <= horizon)
            if remaining:
                counts[EventKind.PERIODIC_REQUEST.value] += remaining
            break

    return SimulationReport(
        model_name=model.name,
        simulation_time=horizon,
        tick_seconds=model.sim_config.tick_seconds,
        final_tick=tick,
        halted_by=state.halted_by,
        residual_mah={name: cell.residual_mah for name, cell in state.devices.items()},
        lifetimes={name: lifetimes.get(name) for name in state.devices},
        counts=dict(sorted(counts.items())),
        module_outputs=dict(state.module_outputs),
        events=tuple(events),
    )


@dataclass(frozen=True)
class SimulationReport:
    model_name: str
    simulation_time: int
    tick_seconds: float
    final_tick: int
    halted_by: str | None  # the device in ``halt_on`` whose depletion ended the run
    residual_mah: dict[str, float]
    lifetimes: dict[str, int | None]
    counts: dict[str, int]
    module_outputs: dict[str, str]
    events: tuple[SimEvent, ...]

    @property
    def halted_on_depletion(self) -> bool:
        return self.halted_by is not None

    def events_csv(self) -> str:
        buffer = io.StringIO()
        write = csv_event_sink(buffer)
        for event in self.events:
            write(event)
        return buffer.getvalue()

    def to_text(self) -> str:
        lines = []
        halt = f" (halted when {self.halted_by} depleted)" if self.halted_by else ""
        lines.append(f"simulation {self.model_name!r}: ran ticks 0..{self.final_tick} "
                     f"of {self.simulation_time}{halt}")
        if self.counts:
            lines.append("events: " + " ".join(f"{kind}={count}"
                                               for kind, count in self.counts.items()))
        for name in sorted(self.residual_mah):
            residual = self.residual_mah[name]
            lifetime = self.lifetimes.get(name)
            if lifetime is None:
                lines.append(f"device {name}: residual {residual:.6g} mAh")
            else:
                days = lifetime * self.tick_seconds / 86400.0
                lines.append(f"device {name}: residual {residual:.6g} mAh, "
                             f"depleted at tick {lifetime} (~{days:.1f} days)")
        for module, output in self.module_outputs.items():
            lines.append(f"module {module}: {len(output.splitlines())} line(s)")
        return "\n".join(lines)
