"""Discrete-event execution of a system model.

Time advances in integer ticks.  Each tick, every component holding a
periodic request advances its own timer; when the timer reaches the
request interval it fires: the bound contract's choreography runs, the
timer restarts, and the next firing lands exactly one interval later.
A run covers ticks 0 through ``simulation_time`` inclusive, so a
component with interval k fires at ticks k-1, 2k-1, 3k-1, ...

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

Declared execution modules run exactly once, before tick 0; an unknown
module name aborts the run before any tick executes.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Collection, Mapping

from .energy import BatteryState, EnergyAmount, drain, initial_battery, sense_energy, transmit_energy
from .model import (
    Component, ConditionExpr, ConstantSource, IoTSystemModel, ModelError, Platform,
    PlatformTier, ServiceContract, TaskKind, UniformSource,
)
from .rng import SplitMix64, derive_seed
from .validate import TaskBinding, task_binding


class EventKind(Enum):
    PERIODIC_REQUEST = "PeriodicRequest"
    EVENT_REQUEST = "EventRequest"
    CACHE_HIT = "CacheHit"
    SENSE_SAMPLE = "SenseSample"
    ACTUATION = "Actuation"
    DEVICE_DEPLETED = "DeviceDepleted"
    MODULE_OUTPUT = "ModuleOutput"


@dataclass(frozen=True)
class SimEvent:
    tick: int
    kind: str
    subject: str
    detail: str = ""


@dataclass(frozen=True)
class FreshnessPolicy:
    """Cache acceptance window in ticks; 0 disables caching entirely."""

    max_age_ticks: int = 0

    def __post_init__(self):
        if self.max_age_ticks < 0:
            raise ModelError(f"max age cannot be negative: {self.max_age_ticks}")


@dataclass
class CacheEntry:
    value: float
    sampled_at: int


class SampleStream:
    """Draw state for one device's data source."""

    __slots__ = ("source", "_rng", "_index")

    def __init__(self, source, fallback_seed: int):
        self.source = source
        seed = source.seed if isinstance(source, UniformSource) and source.seed is not None \
            else fallback_seed
        self._rng = SplitMix64(seed)
        self._index = 0

    def next(self) -> float:
        source = self.source
        if isinstance(source, ConstantSource):
            return source.value
        if isinstance(source, UniformSource):
            return self._rng.uniform(source.lo, source.hi)
        value = source.values[self._index % len(source.values)]
        self._index += 1
        return value


_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def eval_condition(expr: ConditionExpr, sample: Mapping[str, float]) -> bool:
    """Apply a threshold condition to a sample record."""
    if expr.field not in sample:
        raise ModelError(f"sample record has no field {expr.field!r}")
    return _OPS[expr.op](sample[expr.field], expr.threshold)


@dataclass
class _DeviceRuntime:
    platform: Platform
    battery: BatteryState
    stream: SampleStream
    sense: EnergyAmount
    transmit: EnergyAmount | None  # None when the device has no link
    gateway_distance_m: float | None


@dataclass
class SimulationState:
    """Everything that changes during a run; the model itself never does."""

    model: IoTSystemModel
    freshness: FreshnessPolicy
    halt_on: frozenset[str]
    record_events: bool
    global_timer: int = 0
    component_timers: dict[str, int] = field(default_factory=dict)
    devices: dict[str, _DeviceRuntime] = field(default_factory=dict)
    caches: dict[str, CacheEntry] = field(default_factory=dict)
    event_log: list[SimEvent] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    lifetimes: dict[str, int] = field(default_factory=dict)
    module_outputs: dict[str, str] = field(default_factory=dict)
    halt: bool = False

    def log(self, kind: EventKind, subject: str, detail: str = "") -> None:
        self.counts[kind.value] += 1
        if self.record_events:
            self.event_log.append(SimEvent(self.global_timer, kind.value, subject, detail))


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
                  distance_overrides: Mapping[str, float] | None = None,
                  record_events: bool = True) -> SimulationState:
    """Set up batteries, sample streams, and gateway energies for a run.

    ``seed`` overrides the model's configured seed; ``distance_overrides``
    maps device names to a transmission distance in meters replacing the
    gateway link's distance (used by lifetime sweeps).  The run halts
    when a device named in ``halt_on`` depletes.
    """
    run_seed = model.sim_config.rng_seed if seed is None else seed
    overrides = distance_overrides or {}
    state = SimulationState(
        model=model,
        freshness=freshness or FreshnessPolicy(0),
        halt_on=frozenset(halt_on),
        record_events=record_events,
    )
    for platform in model.platforms:
        if platform.tier is not PlatformTier.DEVICE:
            continue
        gateway = gateway_uplink(model, platform)
        distance = overrides.get(platform.name, gateway[1] if gateway else None)
        state.devices[platform.name] = _DeviceRuntime(
            platform=platform,
            battery=initial_battery(platform.energy),
            stream=SampleStream(platform.data_source,
                                derive_seed(run_seed, "source", platform.name)),
            sense=sense_energy(platform.energy),
            transmit=transmit_energy(platform.energy, distance) if distance is not None else None,
            gateway_distance_m=distance,
        )
    unknown = state.halt_on - state.devices.keys()
    if unknown:
        raise ModelError(f"cannot halt on {', '.join(sorted(unknown))}: not a device")
    return state


@dataclass(frozen=True)
class ChoreographyOutcome:
    status: str  # sensed | cache-hit | actuated | recorded | failed:...
    value: float | None = None


def _request_status(state: SimulationState, contract: ServiceContract, provider: Platform,
                    freshness: FreshnessPolicy) -> tuple[str | None, CacheEntry | None]:
    """Why a request against a provider would fail (None if it can go ahead),
    and the cached reading young enough to serve its sense tasks, if any."""
    if provider.tier is not PlatformTier.DEVICE:
        return None, None
    kinds = {t.kind for t in contract.tasks}
    runtime = state.devices[provider.name]
    if TaskKind.SENSE in kinds:
        entry = state.caches.get(provider.name)
        if (freshness.max_age_ticks > 0 and entry is not None
                and state.global_timer - entry.sampled_at <= freshness.max_age_ticks):
            return None, entry  # servable from cache regardless of the device's health
    if runtime.battery.depleted:
        return "provider-depleted", None
    if (TaskKind.SENSE in kinds or TaskKind.ACTUATE in kinds) and runtime.transmit is None:
        return "no-route", None
    return None, None


def execute_choreography(state: SimulationState, contract: ServiceContract,
                         consumer: Component, provider: Platform,
                         freshness: FreshnessPolicy) -> ChoreographyOutcome:
    """Run one request against a provider, applying the contract's tasks.

    Device providers serve sense tasks from the freshness cache when
    possible and otherwise sample and pay the sense + transmit energy;
    actuate tasks record an actuation and cost nothing under this energy
    model.  Non-device providers record the request with no side effects.
    """
    failure, fresh = _request_status(state, contract, provider, freshness)
    if failure is not None:
        return ChoreographyOutcome(f"failed:{failure}")
    return _serve(state, contract, consumer, provider, freshness, fresh)


def _serve(state: SimulationState, contract: ServiceContract, consumer: Component,
           provider: Platform, freshness: FreshnessPolicy,
           fresh: CacheEntry | None) -> ChoreographyOutcome:
    """The tasks of a request that _request_status let through."""
    if provider.tier is not PlatformTier.DEVICE:
        return ChoreographyOutcome("recorded")
    runtime = state.devices[provider.name]
    now = state.global_timer
    outcome = ChoreographyOutcome("recorded")
    for task in contract.tasks:
        if task.kind is TaskKind.SENSE:
            if fresh is not None:
                if state.record_events:
                    state.log(EventKind.CACHE_HIT, provider.name,
                              f"value={fresh.value!r} age={now - fresh.sampled_at} "
                              f"consumer={consumer.name}")
                else:
                    state.log(EventKind.CACHE_HIT, provider.name)
                outcome = ChoreographyOutcome("cache-hit", fresh.value)
                continue
            value = runtime.stream.next()
            if state.record_events:
                state.log(EventKind.SENSE_SAMPLE, provider.name,
                          f"value={value!r} sense_j={runtime.sense.joules!r} "
                          f"transmit_j={runtime.transmit.joules!r} "
                          f"distance_m={runtime.gateway_distance_m!r} consumer={consumer.name}")
            else:
                state.log(EventKind.SENSE_SAMPLE, provider.name)
            was_depleted = runtime.battery.depleted
            runtime.battery = drain(runtime.battery, provider.energy, runtime.sense)
            runtime.battery = drain(runtime.battery, provider.energy, runtime.transmit)
            if not was_depleted and runtime.battery.depleted:
                state.lifetimes[provider.name] = now
                state.log(EventKind.DEVICE_DEPLETED, provider.name,
                          f"residual_mah={runtime.battery.residual_mah!r}")
                if provider.name in state.halt_on:
                    state.halt = True
            state.caches[provider.name] = CacheEntry(value, now)
            if freshness.max_age_ticks > 0:
                # Age 0: a later sense task of this contract is served from it.
                fresh = state.caches[provider.name]
            outcome = ChoreographyOutcome("sensed", value)
        elif task.kind is TaskKind.ACTUATE:
            state.log(EventKind.ACTUATION, provider.name,
                      f"task={task.name} by={consumer.name}" if state.record_events else "")
            if outcome.status == "recorded":
                outcome = ChoreographyOutcome("actuated")
        # transmit/receive/compute tasks are bookkept by the request itself
    return outcome


@dataclass
class _Watcher:
    component: Component
    condition: ConditionExpr
    binding: TaskBinding
    request_detail: str


@dataclass
class _PeriodicPlan:
    component: Component
    interval: int
    binding: TaskBinding
    fields: tuple[str, ...]
    request_detail: str
    watchers: tuple[_Watcher, ...]


def _build_plans(model: IoTSystemModel) -> list[_PeriodicPlan]:
    plans = []
    for app in model.applications:
        watchers = []
        for component in app.components:
            if component.event_request is None:
                continue
            binding = task_binding(model, component.event_request.task)
            watchers.append(_Watcher(
                component=component,
                condition=component.event_request.condition,
                binding=binding,
                request_detail=(f"task={binding.task.name} provider={binding.provider.name} "
                                f"condition={component.event_request.condition.render()}"),
            ))
        for component in app.components:
            if component.periodic_request is None:
                continue
            binding = task_binding(model, component.periodic_request.task)
            fields = binding.contract.message_type.field_names()
            plans.append(_PeriodicPlan(
                component=component,
                interval=component.periodic_request.interval_ticks,
                binding=binding,
                fields=fields,
                request_detail=f"task={binding.task.name} provider={binding.provider.name}",
                watchers=tuple(w for w in watchers if w.condition.field in fields),
            ))
    return plans


def _dispatch(state: SimulationState, kind: EventKind, consumer: Component,
              binding: TaskBinding, detail: str) -> ChoreographyOutcome | None:
    """Log one request and run its choreography when the provider is a platform."""
    if binding.provider.kind != "platform":
        state.log(kind, consumer.name, detail if state.record_events else "")
        return ChoreographyOutcome("recorded")
    provider = state.model.platform(binding.provider.name)
    failure, fresh = _request_status(state, binding.contract, provider, state.freshness)
    if state.record_events:
        suffix = f" status=failed:{failure}" if failure else ""
        state.log(kind, consumer.name, detail + suffix)
    else:
        state.log(kind, consumer.name)
    if failure is not None:
        return None
    return _serve(state, binding.contract, consumer, provider, state.freshness, fresh)


def run_simulation(model: IoTSystemModel, freshness: FreshnessPolicy | None = None,
                   halt_on: Collection[str] = (), *, seed: int | None = None,
                   registry=None, distance_overrides: Mapping[str, float] | None = None,
                   record_events: bool = True) -> "SimulationReport":
    """Execute the model for ticks 0..simulation_time and report what happened.

    Identical inputs (model, seed, freshness policy) produce identical
    reports and byte-identical event logs.  The run halts as soon as a
    device named in ``halt_on`` depletes.  ``registry`` supplies
    the execution-module hooks; the default registry carries the built-in
    analyses.  ``record_events``=False keeps only the event counts, which
    makes multi-hundred-thousand-tick runs cheap.
    """
    state = initial_state(model, freshness=freshness, halt_on=halt_on,
                          seed=seed, distance_overrides=distance_overrides,
                          record_events=record_events)
    plans = _build_plans(model)

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
            state.log(EventKind.MODULE_OUTPUT, name, output if state.record_events else "")

    timers = state.component_timers
    for plan in plans:
        timers[plan.component.name] = 0

    for tick in range(model.sim_config.simulation_time + 1):
        state.global_timer = tick
        for plan in plans:
            name = plan.component.name
            timer = timers[name] + 1
            if timer < plan.interval:
                timers[name] = timer
                continue
            timers[name] = 0
            outcome = _dispatch(state, EventKind.PERIODIC_REQUEST, plan.component,
                                plan.binding, plan.request_detail)
            if outcome is not None and outcome.value is not None:
                for watcher in plan.watchers:
                    record = dict.fromkeys(plan.fields, outcome.value)
                    if eval_condition(watcher.condition, record):
                        _dispatch(state, EventKind.EVENT_REQUEST, watcher.component,
                                  watcher.binding,
                                  f"{watcher.request_detail} value={outcome.value!r}")
            if state.halt:
                break
        if state.halt:
            break

    return SimulationReport(
        model_name=model.name,
        simulation_time=model.sim_config.simulation_time,
        tick_seconds=model.sim_config.tick_seconds,
        final_tick=state.global_timer,
        halted_on_depletion=state.halt,
        residual_mah={name: rt.battery.residual_mah for name, rt in state.devices.items()},
        lifetimes={name: state.lifetimes.get(name) for name in state.devices},
        counts=dict(sorted(state.counts.items())),
        module_outputs=dict(state.module_outputs),
        events=tuple(state.event_log),
    )


@dataclass(frozen=True)
class SimulationReport:
    model_name: str
    simulation_time: int
    tick_seconds: float
    final_tick: int
    halted_on_depletion: bool
    residual_mah: dict[str, float]
    lifetimes: dict[str, int | None]
    counts: dict[str, int]
    module_outputs: dict[str, str]
    events: tuple[SimEvent, ...]

    def events_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["tick", "kind", "subject", "detail"])
        for event in self.events:
            writer.writerow([event.tick, event.kind, event.subject, event.detail])
        return buffer.getvalue()

    def to_text(self) -> str:
        lines = []
        halt = " (halted on first depletion)" if self.halted_on_depletion else ""
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
