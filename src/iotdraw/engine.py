"""Discrete-event execution of a system model.

A run covers ticks 0 through ``simulation_time`` inclusive.  A model is
compiled once per model object, on its first run, into a program that
its later runs reuse: ``_compile``, kept through ``model.derived`` as
routes are.  Per device the program holds its battery at tick 0, the mAh
one sensing and one transmission over its uplink cost, and its data
source.  Per periodic request it holds a plan: the interval, the request
programs of the request and of the event requests its samples feed (event
kind, consumer and log detail, the contract's sense and actuate tasks as
plain tuples, and the provider device, or None when the provider is not a
device), and the kernel the plan's shape picks.  The program holds no run
state, so runs alive at once can share it.  Before tick 0 a run builds
only what it changes: fresh counts and a cell per device (the residual
charge and depleted flag, the sample stream, the cached reading, and the
transmit cost of a device whose distance it overrides), and binds each
plan's kernel to those cells.  Only a logged run renders text then: each
cell's sense detail, and the fixed text of the sense kernel's records.
Each plan keeps the tick it fires next: a component with interval k
fires at ticks k-1, 2k-1, 3k-1, ..., plans due on the same tick fire in
declaration order, and ticks on which nothing fires are never visited.

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

Each periodic plan runs in one request kernel, picked by its shape alone
when the model is compiled: ``_sense_kernel`` or ``_generic_kernel``, whose
docstrings say which plans each runs.  Each kernel serves both run
modes, a logged run and one that keeps only counts, from one set-up of
the plan.  The runner it returns, ``fire(now, stop)``, runs every firing
of the plan in ``[now, stop]``, event requests included, and returns the
tick the plan is due next, or ``~tick`` to hand the plan over when it is
spent (see below) and ``tick`` is its first firing not yet counted.

The scheduler runs the first plan due, in declaration order, with
``stop`` the tick before any other plan is next due, or ``now`` when
another plan is due on the same tick.  A kernel ends its batch early
after a firing in which a device depleted.  A run halted by a depletion
ends after that firing and its event requests: later plans in the
tick's declaration order do not fire.

The sense kernel takes a batch's senses in three steps that both run
modes share: the readings before the last, which a logged run renders
and a run that keeps only counts only tests; then the depletion that the
last sense may cause; then the last reading, tested on its value after
that depletion.  It draws packed: ``_packed`` mixes many outputs of a
generator at once, which ``_matches`` counts and ``_outputs`` unpacks.
Only the last reading of a run that keeps only counts is drawn on its
own, through the stream.  ``rng.py`` and ``docs/determinism.md`` remain
the draw's specification, as ``energy.py`` is the drain's.

The event log is CSV text, rendered once by the code that logs it: the
kernels append records to a list in log order, each item one or more
whole records.  The sense kernel logs one item per batch, its records
rendered in columns and joined once; the generic kernel one per record.
``csv_field`` is the one quoting rule: a field holding a comma, a quote,
``\r`` or ``\n`` is quoted, its quotes doubled.  The sense kernel quotes
each row's fixed text once, when a run binds the plan; what changes from
firing to firing (ticks, ages, float reprs) never needs quoting.  A
logged batch runs at most ``_BATCH_FIRINGS`` (256) firings of one plan,
so the list stays small.  The sink is any callable that takes a list of
CSV text: before the next batch is chosen, and once more after the last,
the run hands it the list so far, the tick-0 module rows first, and
clears it, so the sink gets each batch's list and one that keeps text
must copy it.  ``csv_event_sink(handle)`` writes the header and then each
list to an open text file in one write, so the log never sits in memory,
and ``simulate --log`` runs on it.  ``COLLECT``, the default, is the sink
that keeps the text on the report: ``SimulationReport.events_csv()`` is
the header plus that text, and ``SimulationReport.events`` parses it into
``SimEvent`` rows on first access.

``None`` keeps only the event counts, and such a run takes a plan off the
schedule once it is spent: once each of its firings can only count
itself (``_spent``).  Its provider is not a device, its device has no
link, or its device is depleted and the cache no longer serves it.
Depleted batteries never recover and only a sense refreshes a cache, so
a spent plan stays spent.  Its runner hands it over to the scheduler at
the first firing that finds it spent, and a plan spent before tick 0 is
bound to a runner that hands it over at its first due tick.  Its firings
from then up to the last tick run are counted in closed form, and the
report equals that of the full run.

Declared execution modules run exactly once, before tick 0; an unknown
module name aborts the run before any tick executes.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import sys
from array import array
from enum import Enum
from typing import Callable, Collection, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .energy import (drain_mah, drain_senses_mah, joules_to_mah, require_distance, sense_energy,
                     transmit_drain_mah, transmit_energy)
from .model import (
    Component, ConditionExpr, ConstantSource, DataSource, DeviceEnergyProfile, IoTSystemModel,
    ModelError, Platform, PlatformTier, Record, ServiceContract, TaskKind, UniformSource,
    _require_whole, csv_field,
)
from .rng import _GOLDEN_GAMMA, _MASK64, SplitMix64, derive_seed
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
_KINDS = tuple(sorted(kind.value for kind in EventKind))  # the order a report lists them in
_SENSED, _HIT, _ACTUATED, _DEPLETED, _EVENT = (kind.value for kind in (
    EventKind.SENSE_SAMPLE, EventKind.CACHE_HIT, EventKind.ACTUATION, EventKind.DEVICE_DEPLETED,
    EventKind.EVENT_REQUEST))


class SimEvent(NamedTuple):
    """One event-log row; its field names are the CSV header."""

    tick: int
    kind: str
    subject: str
    detail: str = ""


_HEADER = ",".join(SimEvent._fields) + "\n"
EventSink = Callable[[Sequence[str]], object]  # takes a list of CSV text, each item whole records
COLLECT = object()  # the default sink: keep the log's text on the report
# The most firings of one plan whose records a sink gets at once: a batch's set-up,
# its packed draw and the sink's write are paid once per this many firings.
_BATCH_FIRINGS = 256


def _line(tick: int, kind: str, subject: str, detail: str) -> str:
    """One event-log record as CSV text."""
    return f"{tick},{csv_field(kind)},{csv_field(subject)},{csv_field(detail)}\n"


# A record as ``_line`` writes it: each field bare, or quoted with its quotes doubled.
_FIELD = r'("[^"]*(?:""[^"]*)*"|[^,"\r\n]*)'
_RECORD = re.compile(rf"(-?\d+),{_FIELD},{_FIELD},{_FIELD}\n")


def _unquoted(text: str) -> str:
    return text[1:-1].replace('""', '"') if text[:1] == '"' else text


def _rows(text: str) -> tuple[SimEvent, ...]:
    """The records that ``_line`` wrote into ``text``, read back as rows.

    ``csv.reader`` reads the same rows, but it refuses a field longer than
    ``csv.field_size_limit()``, and a module row holds its hook's whole output.
    """
    rows = []
    at = 0
    while at < len(text):
        record = _RECORD.match(text, at)
        if record is None:
            raise ValueError(f"no event-log record at offset {at}")
        tick, kind, subject, detail = record.groups()
        rows.append(SimEvent(int(tick), _unquoted(kind), _unquoted(subject), _unquoted(detail)))
        at = record.end()
    return tuple(rows)


def _template(*pieces: str) -> tuple[str, ...]:
    """The fixed pieces of one field, quoted so that joining them around parts
    that never need quoting (ticks, ages, float reprs) gives what ``csv_field``
    gives for the whole field."""
    whole = "".join(pieces)
    if csv_field(whole) == whole:
        return pieces
    quoted = [piece.replace('"', '""') for piece in pieces]
    quoted[0], quoted[-1] = '"' + quoted[0], quoted[-1] + '"'
    return tuple(quoted)


def csv_event_sink(handle: TextIO) -> EventSink:
    """Write the event log's header to ``handle``; return the sink that writes each list of CSV text.

    Every item of a list is one or more whole records, quoted by
    ``csv_field`` when they were logged; a list is joined and written at once.
    ``SimulationReport.events_csv`` is the same header plus the same text.
    """
    write = handle.write
    write(_HEADER)

    def sink(texts: Sequence[str]) -> None:
        write("".join(texts))

    return sink


class FreshnessPolicy(Record):
    """Cache acceptance window in ticks; 0 disables caching entirely."""

    max_age_ticks: int = 0

    def __post_init__(self):
        _require_whole(self.max_age_ticks, "FreshnessPolicy.max_age_ticks", "ticks")
        if self.max_age_ticks < 0:
            raise ModelError(f"max age cannot be negative: {self.max_age_ticks}")


class SampleStream:
    """Draw state for one device's data source; ``next()`` gives the next reading.

    A uniform source draws from ``rng``, its own SplitMix64 generator, whose
    ``state`` the request kernels advance in place; ``rng`` is None for the
    other sources.
    """

    __slots__ = ("source", "rng", "next")

    def __init__(self, source, fallback_seed: int):
        self.source = source
        if isinstance(source, UniformSource):
            self.rng = SplitMix64(fallback_seed if source.seed is None else source.seed)
            self.next = functools.partial(self.rng.uniform, source.lo, source.hi)
        else:
            self.rng = None
            self.next = (itertools.repeat(source.value) if isinstance(source, ConstantSource)
                         else itertools.cycle(source.values)).__next__


_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "!=": operator.ne,
}


class _Device(NamedTuple):
    """One device as compiled: what each run starts its cell from."""

    name: str
    energy: DeviceEnergyProfile
    residual_mah: float  # at tick 0, drained to the threshold if it starts at or below it
    depleted: bool
    sense_j: float
    sense_mah: float
    # Over its uplink; None when the device has no link: it can neither report
    # nor be told anything, and a distance override gives it none.
    transmit_mah: float | None
    distance_m: float | None
    source: DataSource
    unseeded: bool  # a uniform source without a seed: its stream's seed derives from the run's


def _device(model: IoTSystemModel, platform: Platform) -> _Device:
    """The device as compiled, costs at its uplink's distance."""
    energy, source = platform.energy, platform.data_source
    sense = sense_energy(energy)
    gateway = gateway_uplink(model, platform)
    distance = None if gateway is None else gateway[1]
    return _Device(platform.name, energy,
                   *drain_mah(energy.residual_energy_mah, energy.depletion_threshold_mah),
                   sense, joules_to_mah(sense, energy.supply_voltage_v),
                   None if distance is None else transmit_drain_mah(energy, distance), distance,
                   source, isinstance(source, UniformSource) and source.seed is None)


class _DeviceCell:
    """One device's run-time state, started from its compiled ``_Device``.

    A run builds what its kernels read: the battery, the cache, the stream,
    and the transmit cost at the distance the run gives the device.  Only a
    logged run reads ``sense_detail``, the energy detail of the device's
    sense records, so a cell has none until ``_build_plans`` binds a logged
    run to it.
    """

    __slots__ = ("name", "residual_mah", "depleted", "threshold_mah", "sense_mah", "transmit_mah",
                 "distance_m", "sense_detail", "stream", "cached_value", "cached_at", "halts")

    def __init__(self, device: _Device, stream: SampleStream, halts: bool,
                 distance_m: float | None = None):
        self.name, self.sense_mah = device.name, device.sense_mah
        self.threshold_mah = device.energy.depletion_threshold_mah
        self.residual_mah, self.depleted = device.residual_mah, device.depleted
        if distance_m is None or device.distance_m is None:
            if distance_m is not None:  # unused without a link, but refused as a linked one is
                require_distance(distance_m)
            self.transmit_mah, self.distance_m = device.transmit_mah, device.distance_m
        else:
            self.transmit_mah = transmit_drain_mah(device.energy, distance_m)
            self.distance_m = distance_m
        self.stream = stream
        self.cached_value = self.cached_at = None  # the last reading and its tick
        self.halts = halts


class SimulationState:
    """Everything that changes during a run; the model itself never does."""

    __slots__ = ("model", "freshness", "devices", "counts", "lifetimes", "module_outputs",
                 "halted_by")

    def __init__(self, model: IoTSystemModel, freshness: FreshnessPolicy,
                 devices: dict[str, _DeviceCell], counts: dict[str, int],
                 lifetimes: dict[str, int], module_outputs: dict[str, str],
                 halted_by: str | None = None):
        self.model, self.freshness, self.devices = model, freshness, devices
        self.counts = counts  # every event kind from 0, so the kernels add without a membership test
        self.lifetimes, self.module_outputs, self.halted_by = lifetimes, module_outputs, halted_by


def gateway_uplink(model: IoTSystemModel, device: Platform) -> tuple[float, float] | None:
    """The device's uplink: (latency, distance) of its best incident link.

    Ties on latency break by neighbor name, so the choice is stable.
    """
    name = device.name
    best = min((link for link in model.networks if name in link.endpoints), default=None,
               key=lambda link: (link.latency_ms,
                                 link.endpoint_b if link.endpoint_a == name else link.endpoint_a))
    return None if best is None else (best.latency_ms, best.distance_m)


def initial_state(model: IoTSystemModel, *, freshness: FreshnessPolicy | None = None,
                  halt_on: Collection[str] = (), seed: int | None = None,
                  distance_overrides: Mapping[str, float] | None = None) -> SimulationState:
    """Set up batteries, sample streams, and gateway energies for a run.

    ``seed`` overrides the model's configured seed; ``distance_overrides``
    maps device names to a transmission distance in meters replacing the
    gateway link's distance (used by lifetime sweeps).  A device with no
    link keeps none: it has no gateway to transmit to.  The run halts
    when a device named in ``halt_on`` depletes.  Each name in either
    must be a device's.  The model's program is compiled on its first run
    and kept; each run builds from it only fresh counts and a cell per
    device, which holds no log text (see ``_DeviceCell``).
    """
    run_seed = model.sim_config.rng_seed if seed is None else seed
    _require_whole(run_seed, "seed")
    overrides = distance_overrides or {}
    halt_on = frozenset(halt_on)
    cells = {}
    for device in model.derived(_compile).devices:
        # Only an unseeded uniform source reads its fallback seed.
        fallback = derive_seed(run_seed, "source", device.name) if device.unseeded else 0
        cells[device.name] = _DeviceCell(device, SampleStream(device.source, fallback),
                                         device.name in halt_on, overrides.get(device.name))
    for names, verb in ((halt_on, "halt on"), (overrides.keys(), "override the distance of")):
        if not names <= cells.keys():
            raise ModelError(f"cannot {verb} {', '.join(sorted(names - cells.keys()))}: "
                             "not a device")
    return SimulationState(model, freshness or FreshnessPolicy(0), cells,
                           dict.fromkeys(_KINDS, 0), {}, {})


class _Request:
    """One request as compiled: what it logs and what it asks of its provider.

    It and ``_Plan`` are ``__slots__`` classes because each run reads their
    fields, and a slot reads faster than a ``NamedTuple`` field.  Nothing
    changes either once compiled.
    """

    __slots__ = ("kind", "consumer", "detail", "device", "tasks", "senses")

    def __init__(self, kind: str, consumer: str, detail: str, device: str | None,
                 tasks: tuple[tuple[str, str], ...], senses: bool):
        self.kind, self.consumer, self.detail = kind, consumer, detail
        self.device = device  # the provider when it is a device, else None
        self.tasks = tasks  # (_SENSED, "") or (_ACTUATED, log detail), over the link
        self.senses = senses  # it can sense or read the cache: a sense task on a device with a link


# (test, threshold, event request): the request fires when test(reading, threshold) holds.
_Watcher = tuple[Callable[[float, float], bool], float, _Request]


class _Plan:
    """A periodic request as compiled, with the event requests its samples feed."""

    __slots__ = ("interval", "request", "watchers", "sensed", "cuts")

    def __init__(self, interval: int, request: _Request, watchers: tuple[_Watcher, ...],
                 sensed: bool, cuts: tuple[tuple[int, int, bool], ...]):
        self.interval, self.request, self.watchers = interval, request, watchers
        self.sensed = sensed  # it runs in ``_sense_kernel``, else in ``_generic_kernel``
        self.cuts = cuts  # per watcher, its ``_cut`` on a uniform source


class _Program(NamedTuple):
    """A model compiled for running.  It holds no run state, so any number of
    runs, even runs alive at once, share it."""

    devices: tuple[_Device, ...]
    plans: tuple[_Plan, ...]


def _compile(model: IoTSystemModel) -> _Program:
    """The model's program; runs read it through ``model.derived``, so it is
    compiled once per model object."""
    devices = {platform.name: _device(model, platform) for platform in model.platforms
               if platform.tier is PlatformTier.DEVICE}
    plans = []
    for app in model.applications:
        watchers = []
        for component in app.components:
            if component.event_request is None:
                continue
            condition = component.event_request.condition
            request, _ = _request(model, devices, EventKind.EVENT_REQUEST, component,
                                  component.event_request.task, condition)
            watchers.append((condition, request))
        for component in app.components:
            if component.periodic_request is None:
                continue
            request, contract = _request(model, devices, EventKind.PERIODIC_REQUEST, component,
                                         component.periodic_request.task)
            fields = contract.message_type.field_names()
            watching = [(c, w) for c, w in watchers if c.field in fields]
            sensed = (request.senses and request.tasks == ((_SENSED, ""),)
                      and not any(w.senses for _, w in watching))
            source = devices[request.device].source if sensed else None
            cuts = (tuple(_cut(source.lo, source.hi, c.op, c.threshold) for c, _ in watching)
                    if isinstance(source, UniformSource) else ())
            plans.append(_Plan(component.periodic_request.interval_ticks, request,
                               tuple((_OPS[c.op], c.threshold, w) for c, w in watching),
                               sensed, cuts))
    return _Program(tuple(devices.values()), tuple(plans))


def _request(model: IoTSystemModel, devices: Mapping[str, _Device], kind: EventKind,
             consumer: Component, task: str,
             condition: ConditionExpr | None = None) -> tuple[_Request, ServiceContract]:
    """The compiled request for one task, and the contract it runs."""
    binding = task_binding(model, task)
    provider = binding.provider
    device = provider.name if provider.kind == "platform" and provider.name in devices else None
    # Transmit, receive and compute tasks are bookkept by the request itself.
    tasks = tuple((_SENSED, "") if t.kind is TaskKind.SENSE
                  else (_ACTUATED, f"task={t.name} by={consumer.name}")
                  for t in binding.contract.tasks
                  if t.kind is TaskKind.SENSE or t.kind is TaskKind.ACTUATE)
    detail = f"task={binding.task.name} provider={provider.name}"
    if condition is not None:
        detail += f" condition={condition.render()}"
    request = _Request(kind.value, consumer.name, detail, device, tasks,
                       senses=((_SENSED, "") in tasks and device is not None
                               and devices[device].transmit_mah is not None))
    return request, binding.contract


def _build_plans(state: SimulationState,
                 log: Callable[[str], object] | None) -> list[Callable[[int, int], int]]:
    """Bind each plan of the model's program to this run's cells: the runner of
    its kernel, in the program's order.  A run that keeps only counts binds a
    plan that is spent before tick 0 to ``_handed_over``, so the scheduler
    takes it off at its first due tick, as it takes any plan a kernel hands
    over.  A logged run first renders the ``sense_detail`` of each cell with
    a link."""
    program = state.model.derived(_compile)
    if log is not None:
        for device in program.devices:
            cell = state.devices[device.name]
            if cell.distance_m is not None:
                cell.sense_detail = (f"sense_j={device.sense_j!r} transmit_j="
                                     f"{transmit_energy(device.energy, cell.distance_m)!r} "
                                     f"distance_m={cell.distance_m!r}")
    devices = state.devices
    return [_handed_over if log is None and _spent(plan.request, devices.get(plan.request.device))
            else (_sense_kernel if plan.sensed else _generic_kernel)(state, log, plan)
            for plan in program.plans]


def _handed_over(now: int, stop: int) -> int:
    """The runner of a plan spent before tick 0: it hands the plan over at once."""
    return ~now


_PROVIDER_DEPLETED = " status=failed:provider-depleted"


def _failure(request: _Request, cell: _DeviceCell | None) -> str:
    """The status suffix of a request to ``cell`` not served from the cache: empty
    when the provider can serve it."""
    if cell is None:
        return ""
    if cell.depleted:
        return _PROVIDER_DEPLETED
    if request.tasks and cell.transmit_mah is None:
        return " status=failed:no-route"
    return ""


def _deplete(state: SimulationState, cell: _DeviceCell, now: int) -> None:
    """Record that ``cell``'s device depleted at tick ``now``: its lifetime, the
    count, and the halt it causes when it is the first halting device to deplete."""
    cell.depleted = True
    state.lifetimes[cell.name] = now
    state.counts[_DEPLETED] += 1
    if cell.halts and state.halted_by is None:
        state.halted_by = cell.name


def _sense_kernel(state: SimulationState, log: Callable[[str], object] | None,
                  plan: _Plan) -> Callable[[int, int], int]:
    """A plan whose contract is one sense task on a device with a link, read from the
    cache when ``max_age`` allows, with watchers that cannot sense.

    One runner serves a logged run and one that keeps only counts.  It keeps
    the cell's fields in locals for a batch, and ends the batch after the
    firing that depletes the device.  A watcher drains nothing, so its
    outcome changes only when some device depletes (it may be its own):
    ``refresh`` works the outcomes out again whenever a device has depleted
    since.

    A batch relies on depletion, freshness and the stream's position never
    depending on a reading.  The firings up to the cache's last fresh tick
    come first, each a hit on the cached reading.  A device depleted past
    them fails every firing: a logged run logs the failures, and a run that
    keeps only counts hands the plan over.  Otherwise the senses that follow
    take two passes.  The first drains up to ``stop`` or through the sense
    that depletes the device, one binade of the residual at a time
    (``drain_senses_mah``); each sense is followed by the ``max_age //
    interval`` cache hits its reading serves, the last only by those before
    ``stop`` and by none when it depletes the device.

    The second pass takes the same three steps in both run modes:

    1. The readings before the last.  A logged run draws every reading at
       once, a uniform source's through ``_outputs``, and renders the batch
       in columns, seven per sense: its tick, its request, its tick, its
       sample up to the reading, the reading's ``repr``, the sample's tail,
       and what follows the sample: its watchers' records, from one
       ``compress`` per watcher over the readings (``alarms``), then the
       hits it serves (``tested``).  A run that keeps only counts works out
       only what a watcher tests: ``_matches`` counts a uniform source's
       outputs on each condition's range of outputs, and the generator then
       moves once per reading; the other sources' readings are tested one
       by one.
    2. The depletion, when the last sense causes it: ``_deplete``, then
       ``refresh``.
    3. The last reading, tested on its value after that depletion, once and
       once more per hit it serves before ``stop``; it becomes the cached
       reading.  A logged run adds the depletion record, its watchers'
       records and its hits to its last column.  A run that keeps only
       counts draws it through the stream's own ``next``, the draw's
       specification, except that a uniform source that no condition
       watches and no cache keeps only moves its generator.

    The fixed text is quoted when the run binds the plan, and a logged
    batch is joined into one item of the log.
    """
    interval, request, watchers, cuts = plan.interval, plan.request, plan.watchers, plan.cuts
    cell = state.devices[request.device]
    rng, sample, source = cell.stream.rng, cell.stream.next, cell.stream.source
    if rng is not None:
        lo, span = source.lo, source.hi - source.lo
    sense_mah, transmit_mah, threshold = cell.sense_mah, cell.transmit_mah, cell.threshold_mah
    max_age = state.freshness.max_age_ticks
    counts, lifetimes = state.counts, state.lifetimes
    # A device depletes during a run only as its lifetime is recorded, so the
    # watchers' outcomes stand while the number of lifetimes does.
    outcomes, depletions = [], -1

    def refresh() -> None:
        """Per watcher, worked out again once a device has depleted: its actuation count
        and, with a log, its record's text up to the value and the pieces that a tick
        joins into the rest of its records."""
        nonlocal outcomes, depletions
        if depletions == len(lifetimes):
            return
        outcomes, depletions = [], len(lifetimes)
        for _, _, watcher in watchers:
            target = state.devices.get(watcher.device)
            suffix = _failure(watcher, target)
            actions = () if suffix or target is None else [a for _, a in watcher.tasks]
            if log is None:
                outcomes.append((len(actions),))
                continue
            head, tail = _template(f"{watcher.detail} value=", suffix)
            device = target and csv_field(target.name)
            outcomes.append((len(actions), f",{_EVENT},{csv_field(watcher.consumer)},{head}",
                             (tail + "\n", *(f",{_ACTUATED},{device},{csv_field(action)}\n"
                                             for action in actions))))

    repeats = max_age // interval  # the cache hits that follow each sense
    step = (repeats + 1) * interval  # the ticks from one sense to the next
    if log is not None:
        # Each record's fixed text, after its tick, is quoted once.
        consumer, subject = csv_field(request.consumer), csv_field(cell.name)
        served = f",{request.kind},{consumer},{csv_field(request.detail)}\n"
        failed = f",{request.kind},{consumer},{csv_field(request.detail + _PROVIDER_DEPLETED)}\n"
        head, tail = _template("value=", f" {cell.sense_detail} consumer={request.consumer}")
        sensed, sensed_tail = f",{_SENSED},{subject},{head}", tail + "\n"
        head, middle, tail = _template("value=", " age=", f" consumer={request.consumer}")
        hit, hit_middle, hit_tail = f",{_HIT},{subject},{head}", middle, tail + "\n"
        drained = f",{_DEPLETED},{subject},residual_mah="

        def alarms(cols: list[str], values: list[float], begin: int, end: int) -> None:
            """Count the alerts and actuations that the readings of a logged batch's senses
            ``begin`` to ``end`` set off, and add their records to ``cols``."""
            for (test, limit, _), (count, event, pieces) in zip(watchers, outcomes):
                # each sense's last column, where its tick is six columns back and its reading two
                fired = map(test, values[begin:end], itertools.repeat(limit))
                found = list(itertools.compress(range(7 * begin + 6, 7 * end, 7), fired))
                counts[_EVENT] += len(found)
                counts[_ACTUATED] += count * len(found)
                for at in found:
                    tick = cols[at - 6]
                    cols[at] += f"{tick}{event}{cols[at - 2]}{tick.join(pieces)}"

    def tested(value: float, fired: int = 1, at: int = 0, now: int = 0) -> str:
        """Count the alerts and actuations that a reading sets off in ``fired`` firings;
        in a logged run, those firings' records: cache hits, from tick ``now`` on, on
        the reading of tick ``at``."""
        found = [outcome for (test, limit, _), outcome in zip(watchers, outcomes)
                 if test(value, limit)]
        if found:
            counts[_EVENT] += fired * len(found)
            counts[_ACTUATED] += fired * sum(outcome[0] for outcome in found)
        if log is None:
            return ""
        records, shown = [], repr(value)
        for now in range(now, now + fired * interval, interval):
            tick = str(now)
            records.append(f"{tick}{served}{tick}{hit}{shown}{hit_middle}{now - at}{hit_tail}")
            records += [f"{tick}{event}{shown}{tick.join(pieces)}" for _, event, pieces in found]
        return "".join(records)

    def fire(now: int, stop: int) -> int:
        residual, cached_value, cached_at = cell.residual_mah, cell.cached_value, cell.cached_at
        refresh()
        start, senses, failures, text = now, 0, 0, ""
        if max_age and cached_at is not None and now - cached_at <= max_age:
            # fresh, whatever the device's health, up to the cache's last fresh tick
            last = cached_at + max_age
            fresh = ((last if last < stop else stop) - now) // interval + 1
            text = tested(cached_value, fresh, cached_at, now)
            now += fresh * interval
        spent = cell.depleted and now <= stop  # and past the cache's last fresh tick
        if spent and log is not None:  # each firing fails
            failures = (stop - now) // interval + 1
            text += "".join([f"{tick}{failed}" for tick in range(now, stop + 1, interval)])
            now += failures * interval
        elif now <= stop and not cell.depleted:
            # Pass 1: drain up to ``stop``, or through the sense that depletes the device.
            senses, residual = drain_senses_mah(residual, threshold, sense_mah, transmit_mah,
                                                (stop - now) // step + 1)
            last = now + (senses - 1) * step  # the tick of the last sense
            depletes = residual <= threshold
            # the firings the last reading serves: its own, and its hits before ``stop``
            weight = 1 if depletes else min((stop - last) // interval, repeats) + 1
            # Pass 2, in three steps.  First what each reading before the last sets off,
            # once and once more per hit it serves.
            earlier = senses - 1
            if log is not None:
                # Every reading at once, then the batch's records in columns, seven
                # per sense: its request, its sample, and the records that follow.
                if rng is None:
                    values = [sample() for _ in range(senses)]
                else:
                    values = [lo + span * (z / _MASK64) for z in _outputs(rng.state, senses)]
                    rng.state = (rng.state + senses * _GOLDEN_GAMMA) & _MASK64
                cols = [None, served, None, sensed, None, sensed_tail, ""] * senses
                cols[0::7] = cols[2::7] = list(map(str, range(now, last + 1, step)))
                cols[4::7] = map(repr, values)
                alarms(cols, values, 0, earlier)
                for at in range(earlier) if repeats else ():
                    tick = now + at * step
                    cols[7 * at + 6] += tested(values[at], repeats, tick, tick + interval)
            elif rng is None:
                for _ in range(earlier):
                    tested(sample(), repeats + 1)
            elif earlier:
                if cuts:
                    found = _matches(rng.state, earlier, cuts)
                    counts[_EVENT] += sum(found) * (repeats + 1)
                    counts[_ACTUATED] += (repeats + 1) * sum(
                        count * n for count, (n,) in zip(found, outcomes))
                rng.state = (rng.state + earlier * _GOLDEN_GAMMA) & _MASK64
            if depletes:  # then the depletion the last sense causes
                _deplete(state, cell, last)
                refresh()
            # Then the last reading, tested on its value after that depletion.
            if log is not None:
                value = values[-1]
                if depletes:
                    cols[-1] = f"{cols[-7]}{drained}{residual!r}\n"
                alarms(cols, values, earlier, senses)
                if weight > 1:
                    cols[-1] += tested(value, weight - 1, last, last + interval)
                text += "".join(cols)
            elif rng is None or cuts or max_age:
                value = sample()
                tested(value, weight)
            else:  # no condition tests it and no cache keeps it
                rng.state = (rng.state + _GOLDEN_GAMMA) & _MASK64
            if max_age:
                cached_value, cached_at = value, last
            now = last + weight * interval
        cell.residual_mah, cell.cached_value, cell.cached_at = residual, cached_value, cached_at
        if text:
            log(text)
        fired = (now - start) // interval
        counts[request.kind] += fired
        counts[_SENSED] += senses
        counts[_HIT] += fired - senses - failures
        return ~now if spent and log is None else now

    return fire


def _cut(lo: float, hi: float, op: str, limit: float) -> tuple[int, int, bool]:
    """Where ``op(lo + (hi - lo) * (z / (2**64 - 1)), limit)`` holds over the 64-bit
    outputs ``z``: on ``first <= z < end`` when ``inside``, off it otherwise.
    It serves only ``_matches``, the packed count of a batch's earlier readings;
    the last reading is tested on its value.

    Each rounding step is monotone, so the reading never decreases as ``z``
    grows, and a condition holds on one range of ``z`` (off one for ``!=``).
    Its edges are the first ``z`` whose reading is ``>= limit`` and the first
    whose reading is ``> limit``.  The model keeps ``hi - lo`` and every
    condition's ``limit`` finite, so no reading or limit is NaN.
    """
    span = hi - lo

    def first(test: Callable[[float, float], bool]) -> int:
        low, high = 0, 1 << 64  # 2**64: no output passes
        while low < high:
            middle = (low + high) // 2
            if test(lo + span * (middle / 0xFFFFFFFFFFFFFFFF), limit):
                high = middle
            else:
                low = middle + 1
        return low

    at, above, end = first(operator.ge), first(operator.gt), 1 << 64
    return {"<": (0, at, True), "<=": (0, above, True), ">": (above, end, True),
            ">=": (at, end, True), "=": (at, above, True), "!=": (at, above, False)}[op]


# The packed draw: ``_LANES`` SplitMix64 outputs mixed at once, each in a 128-bit
# lane of one int, where a 64-bit state times a 64-bit constant fits without a carry.
_LANES = 1024


@functools.cache
def _lane_tables() -> tuple[int, int, int, int]:
    """In every lane: 1, the low 64 bits, bit 64, and the lane's number from 1
    times the generator's increment, mod 2**64.  Built on first use, then kept."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
    steps = b"".join((i * _GOLDEN_GAMMA & _MASK64).to_bytes(16, "little")
                     for i in range(1, _LANES + 1))
    return ones, ones * _MASK64, ones << 64, int.from_bytes(steps, "little")


def _packed(seed: int, n: int) -> Iterator[tuple[int, int, int]]:
    """The ``n`` outputs that follow generator state ``seed``, mixed ``_LANES`` at
    a time: per chunk, its number of lanes, 1 in each of them, and its outputs.

    Lane ``i`` of a chunk starts as the state ``seed + i * increment``, and
    whole-int xor-shifts, multiplies and masks mix every lane at once.  An
    output is the low 64 bits of its lane; bits 64 to 96 are clear, and what
    the last shift brings down from the next lane lies above them.
    """
    ones, low, _, steps = _lane_tables()
    full, rest = divmod(n, _LANES)
    for lanes, chunks in ((_LANES, full), (rest, min(rest, 1))):
        if lanes < _LANES:  # the last chunk: only its lanes
            keep = (1 << 128 * lanes) - 1
            ones, steps = ones & keep, steps & keep
        for _ in range(chunks):
            z = (seed * ones + steps) & low
            z = (z ^ (z >> 30)) & low
            z = z * 0xBF58476D1CE4E5B9 & low
            z = (z ^ (z >> 27)) & low
            z = z * 0x94D049BB133111EB & low
            yield lanes, ones, z ^ (z >> 31)
            seed = (seed + lanes * _GOLDEN_GAMMA) & _MASK64


def _outputs(seed: int, n: int) -> array:
    """The ``n`` outputs that follow generator state ``seed``, in order, unpacked
    from ``_packed`` alike on hosts of either byte order."""
    words = array("Q")
    for lanes, _, z in _packed(seed, n):
        words.frombytes(z.to_bytes(16 * lanes, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[::2]


def _matches(seed: int, n: int, cuts: Sequence[tuple[int, int, bool]]) -> list[int]:
    """Per ``_cut`` range ``(first, end, inside)``, how many of the ``n`` outputs
    that follow generator state ``seed`` lie on it when ``inside``, off it otherwise."""
    found, top, width = [0] * len(cuts), _lane_tables()[2], 0
    for lanes, ones, z in _packed(seed, n):
        if lanes != width:
            # An output z is at least ``bound`` when bit 64 of ``z + 2**64 - bound`` is
            # set.  Every output is at least 0; none is at least 2**64, whose offset is 0.
            width, offsets = lanes, [(index, first, inside, ((1 << 64) - first) * ones,
                                      ((1 << 64) - end) * ones)
                                     for index, (first, end, inside) in enumerate(cuts)]
        for index, first, inside, from_first, from_end in offsets:
            held = ((z + from_first) & top).bit_count() if first else lanes
            if from_end:
                held -= ((z + from_end) & top).bit_count()
            found[index] += held if inside else lanes - held
    return found


def _generic_kernel(state: SimulationState, log: Callable[[str], object] | None,
                    plan: _Plan) -> Callable[[int, int], int]:
    """A plan the sense kernel does not cover: a sense among several tasks, an event
    request that can sense, or a request that cannot sense because its provider is
    not a device, its device has no link or its contract only actuates.

    Each request goes through ``_serve``; the batch ends after a firing in which a
    device depleted.  In a run that keeps only counts, a firing that delivers
    nothing hands the plan over if it is spent.
    """
    interval, request, devices = plan.interval, plan.request, state.devices
    lifetimes, cell = state.lifetimes, devices.get(request.device)
    tests = tuple((test, threshold, watcher, devices.get(watcher.device))
                  for test, threshold, watcher in plan.watchers)

    def fire(now: int, stop: int) -> int:
        depletions = len(lifetimes)
        while now <= stop and len(lifetimes) == depletions:
            value = _serve(state, log, request, cell, now)
            if value is not None:
                for test, threshold, watcher, target in tests:
                    if test(value, threshold):
                        _serve(state, log, watcher, target, now,
                               f" value={value!r}" if log is not None else "")
            elif log is None and _spent(request, cell):
                return ~(now + interval)
            now += interval
        return now

    return fire


def _serve(state: SimulationState, log: Callable[[str], object] | None, request: _Request,
           cell: _DeviceCell | None, now: int, note: str = "") -> float | None:
    """Run one request to ``cell`` at tick ``now``; the reading it delivers, if any."""
    counts = state.counts
    counts[request.kind] += 1
    max_age = state.freshness.max_age_ticks
    # served from the cache, whatever the device's health
    fresh = (request.senses and max_age > 0 and cell.cached_at is not None
             and now - cell.cached_at <= max_age)
    suffix = "" if fresh else _failure(request, cell)
    if log is not None:
        log(_line(now, request.kind, request.consumer, request.detail + note + suffix))
    if cell is None or suffix:
        return None
    value = None
    for task, action in request.tasks:
        if task == _ACTUATED:
            counts[_ACTUATED] += 1
            if log is not None:
                log(_line(now, _ACTUATED, cell.name, action))
            continue
        if fresh:
            value = cell.cached_value
            counts[_HIT] += 1
            if log is not None:
                log(_line(now, _HIT, cell.name, f"value={value!r} "
                          f"age={now - cell.cached_at} consumer={request.consumer}"))
            continue
        value = cell.stream.next()
        counts[_SENSED] += 1
        if log is not None:
            log(_line(now, _SENSED, cell.name,
                      f"value={value!r} {cell.sense_detail} consumer={request.consumer}"))
        was_depleted = cell.depleted
        cell.residual_mah, cell.depleted = drain_mah(cell.residual_mah, cell.threshold_mah,
                                                     cell.sense_mah, cell.transmit_mah)
        if cell.depleted and not was_depleted:
            _deplete(state, cell, now)
            if log is not None:
                log(_line(now, _DEPLETED, cell.name, f"residual_mah={cell.residual_mah!r}"))
        cell.cached_value, cell.cached_at = value, now
        if max_age:
            fresh = True  # age 0: a later sense task of this contract is served from it
    return value


def _spent(request: _Request, cell: _DeviceCell | None) -> bool:
    """Whether each firing of ``request`` to ``cell`` that the cache does not serve
    only counts itself: it can deliver no reading, actuate nothing and drain
    nothing, now or later.

    Depleted batteries never recover and only a sense refreshes a cache, so a
    request that fails with a stale cache fails for good.
    """
    return cell is None or not request.tasks or bool(_failure(request, cell))


def run_simulation(model: IoTSystemModel, freshness: FreshnessPolicy | None = None,
                   halt_on: Collection[str] = (), *, seed: int | None = None,
                   registry=None, distance_overrides: Mapping[str, float] | None = None,
                   sink: EventSink | None = COLLECT) -> "SimulationReport":
    """Execute the model for ticks 0..simulation_time and report what happened.

    The model's program is compiled on its first run and kept with the
    model object, so repeated runs of one model, such as a sweep's rounds,
    compile it once; each run builds only its own state from it (its
    cells, sample streams and counts), and a run that keeps only counts
    renders no text.  Identical inputs (model, seed, freshness policy)
    produce identical reports and byte-identical event logs.  The run
    halts as soon as a device named in ``halt_on`` depletes; each name in
    it and each key of ``distance_overrides`` must be a device's, and an
    overriding distance must be finite and positive.  ``registry`` supplies
    the execution-module hooks; the default registry carries the built-in
    analyses.  ``sink`` receives the event log: None keeps only the event
    counts, which makes multi-hundred-thousand-tick runs cheap; any
    callable gets each logged batch's list of CSV text, in log order, each
    item whole records, a batch being at most 256 firings of one plan (and
    ``report.events`` stays empty); ``COLLECT`` stands for the sink that
    keeps the text on the report (``report.events_csv()``, parsed into
    ``report.events`` on first access).
    """
    state = initial_state(model, freshness=freshness, halt_on=halt_on,
                          seed=seed, distance_overrides=distance_overrides)
    collected: list[str] = []
    if sink is COLLECT:
        sink = collected.extend
    events: list[str] = []  # CSV text, each item whole records, handed to the sink
    log = None if sink is None else events.append
    fires = _build_plans(state, log)
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
            if log is not None:
                log(_line(0, EventKind.MODULE_OUTPUT.value, name, output))

    horizon = model.sim_config.simulation_time
    never = horizon + 1
    intervals = [plan.interval for plan in model.derived(_compile).plans]
    due = [interval - 1 for interval in intervals]
    closed: dict[int, int] = {}  # plan index -> its first firing counted in closed form
    tick = horizon
    halting = None  # the index of the plan whose firing halted the run
    while True:
        if events:  # the tick-0 module rows, then each batch's records
            sink(events)
            events.clear()
        now = min(due) if due else never  # min(due, default=never) costs 3x per call
        if now > horizon or halting is not None:
            break
        # The first plan due runs up to the tick before any other plan is
        # due, or only now if another is due now too: it comes later in
        # declaration order.
        index = due.index(now)
        due[index] = never
        later = min(due)
        stop = now if later == now else later - 1 if later <= horizon else horizon
        if log is not None:
            stop = min(stop, now + (_BATCH_FIRINGS - 1) * intervals[index])
        due[index] = fires[index](now, stop)
        if due[index] < 0:  # handed over: spent from tick ~due[index] on
            closed[index], due[index] = ~due[index], never
        if state.halted_by is not None:
            tick, halting = due[index] - intervals[index], index
    for index, first in closed.items():
        # A plan after the one that halted the run does not fire on the halting tick.
        last = tick - (halting is not None and index > halting)
        if first <= last:
            counts[EventKind.PERIODIC_REQUEST.value] += (last - first) // intervals[index] + 1

    # One fill of the report's fields: its constructor, which checks nothing, sets them
    # one object.__setattr__ call at a time.
    report = object.__new__(SimulationReport)
    vars(report).update(
        model_name=model.name,
        simulation_time=horizon,
        tick_seconds=model.sim_config.tick_seconds,
        final_tick=tick,
        halted_by=state.halted_by,
        residual_mah={name: cell.residual_mah for name, cell in state.devices.items()},
        lifetimes={name: state.lifetimes.get(name) for name in state.devices},
        counts={kind: count for kind, count in counts.items() if count},  # in _KINDS order
        module_outputs=state.module_outputs,
        log_text="".join(collected),
    )
    return report


class SimulationReport(Record):
    model_name: str
    simulation_time: int
    tick_seconds: float
    final_tick: int
    halted_by: str | None  # the device in ``halt_on`` whose depletion ended the run
    residual_mah: dict[str, float]
    lifetimes: dict[str, int | None]
    counts: dict[str, int]
    module_outputs: dict[str, str]
    log_text: str  # the collected event log's records as CSV text, without the header

    @property
    def halted_on_depletion(self) -> bool:
        return self.halted_by is not None

    @functools.cached_property
    def events(self) -> tuple[SimEvent, ...]:
        """The collected event log's rows, parsed from its text on first access."""
        return _rows(self.log_text)

    def events_csv(self) -> str:
        return _HEADER + self.log_text

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
