"""Domain model for service-oriented periodic IoT systems.

A system is a set of platforms (clouds, fogs, battery-powered devices)
joined by network links, plus applications whose components consume
services that platforms or other components provide under declared
contracts.  Instances are immutable; anything that changes over a run
(batteries, cached readings, request schedules) lives in the engine
instead, so a model can be shared freely between threads and analyses.

Models are produced by :func:`iotdraw.modelfmt.parse_model`, which reads
each block of the text straight into its constructor here and resolves
the names the blocks use.  Each constructor checks its own object's
invariants.  :class:`IoTSystemModel`'s also checks that names are unique
within each category (``repeated_names``), however the model is built;
the parser checks references.

Every model object, and every other record of the package, is a
:class:`Record`: a class that lists its fields as annotations, with plain
default values where it has them, and checks its invariants in
``__post_init__``.  A record keeps what a frozen dataclass gives: it is
built by position or keyword, compares equal and hashes by its fields in
order, prints as ``Name(field=value, ...)``, refuses assignment and
deletion with ``dataclasses.FrozenInstanceError``, and survives
``pickle`` and ``copy.deepcopy``; ``dataclasses.fields``,
``dataclasses.replace`` (which checks the copy again) and ``match``
patterns work on it.  Its methods are shared by all records and no code
is generated for a class, so defining the package's records costs its
start-up little.
"""

from __future__ import annotations

import dataclasses
import heapq
import inspect
import math
import operator
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .diagnostics import SourceSpan


class _FieldSignature:
    """``inspect.signature`` of a record class: one parameter per field, in order,
    with its default."""

    def __get__(self, record, cls) -> inspect.Signature:
        return inspect.Signature([
            inspect.Parameter(field.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                              annotation=field.type, default=inspect.Parameter.empty
                              if field.default is dataclasses.MISSING else field.default)
            for field in dataclasses.fields(cls)])


_setattr = object.__setattr__


class Record:
    """Base class of the package's records: immutable values compared by their fields.

    Defining a subclass applies ``dataclasses.dataclass(init=False,
    repr=False, eq=False)`` to it, which collects its fields without
    generating any method, and keeps a table of the field names and
    defaults that the methods here read.  A default is a plain value; a
    ``default_factory`` is not supported.

    The constructor sets each field with ``object.__setattr__``, as a
    frozen dataclass's does, so that the instance keeps its attributes in
    the compact form CPython gives an object whose ``__dict__`` is never
    asked for; filling ``vars(record)`` in one step would give every
    record a dictionary of its own, about 64 bytes more.
    """

    __signature__ = _FieldSignature()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
        fields = dataclasses.fields(cls)
        cls._names = names = tuple(field.name for field in fields)
        cls._defaults = {field.name: field.default for field in fields
                         if field.default is not dataclasses.MISSING}
        values = operator.attrgetter(*names)
        # What equality and hashing compare: a tuple, as a frozen dataclass's do.
        cls._values = staticmethod(values if len(names) > 1 else lambda record: (values(record),))

    def __init__(self, *args, **kwargs):
        names = self._names
        if not kwargs and len(args) == len(names):
            fields = zip(names, args)
        else:
            fields = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or len(fields) != len(names)
                    or not kwargs.keys() <= self.__dataclass_fields__.keys()
                    or not kwargs.keys().isdisjoint(names[:len(args)])):
                try:
                    self.__signature__.bind(*args, **kwargs)  # each field one value, or its default
                except TypeError as refused:
                    raise TypeError(f"{self.__class__.__qualname__}(): {refused}") from None
            fields = fields.items()
        for name, value in fields:
            _setattr(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check the record's invariants; this record has none."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._names])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


class ModelError(ValueError):
    """Raised for invariant violations and unresolvable references.

    ``issues`` holds one entry per problem so callers that build models
    from text can surface all of them at once.
    """

    def __init__(self, issues):
        if isinstance(issues, str):
            issues = [BuildIssue(issues)]
        self.issues = list(issues)
        super().__init__("; ".join(issue.message for issue in self.issues))


class BuildIssue(Record):
    message: str
    subject: str = ""
    span: SourceSpan | None = None


def _require(condition: bool, message: str, subject: str = "") -> None:
    """Reject with ``message`` unless ``condition`` holds.

    ``subject`` is the name the message already gives, so that a caller
    adding the name as context does not repeat it.
    """
    if not condition:
        raise ModelError([BuildIssue(message, subject)])


def repeated_names(category: str, names, spans=None) -> list[BuildIssue]:
    """One issue per repeat among ``names``, a category's names in declaration
    order, at the repeat's span in ``spans`` when given: within a category of
    a model, names are unique."""
    seen: set[str] = set()
    issues = []
    for at, name in enumerate(names):
        if name in seen:
            issues.append(BuildIssue(f"duplicate identifier: {category} {name!r}", name,
                                     spans[at] if spans else None))
        seen.add(name)
    return issues


def _finite(number: float) -> bool:
    """Whether ``number`` is a finite float, or an int that converts to one."""
    try:
        return math.isfinite(number)
    except OverflowError:  # an int beyond float range
        return False


def _shown(number: float) -> str:
    """``number`` as a message gives it; an int beyond float range by its size,
    since its digits may be too many to print."""
    return str(number) if _finite(number) or isinstance(number, float) else (
        f"an integer of {number.bit_length()} bits")


def _number(value) -> bool:
    """Whether ``value`` is an int or a float; a bool is neither here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_numbers(obj, *names: str, subject: str = "", finite: bool = True) -> None:
    """Reject ``obj`` unless each of its fields ``names`` is a ``_number`` and, unless
    ``finite`` is false, ``_finite``; ``subject`` is the name of the object, which
    the message then starts with."""
    for name in names:
        value = getattr(obj, name)
        if not _number(value):
            problem = f"a number, got {value!r}"
        elif finite and not _finite(value):
            problem = f"finite, got {_shown(value)}"
        else:
            continue
        raise ModelError([BuildIssue(f"{subject + ': ' if subject else ''}{type(obj).__name__}."
                                     f"{name} must be {problem}", subject)])


def _require_whole(value, what: str, unit: str = "") -> None:
    """Reject ``value``, named ``what`` in the message and a count of ``unit`` if
    given, unless it is an int (a bool is not one here)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelError(f"{what} must be a whole number{' of ' + unit if unit else ''}, "
                         f"got {value!r}")


def format_number(value: float) -> str:
    """Integral values print bare (``20``), all others as their ``repr``."""
    return str(int(value)) if value == int(value) else repr(value)


def csv_field(text: str) -> str:
    """One CSV field: quoted, its quotes doubled, when it holds a comma, a quote, ``\n`` or ``\r``.

    This is ``csv.writer``'s QUOTE_MINIMAL rule, except that a bare ``\r``
    is quoted too, so ``csv.reader`` reads every record back whole.  It is
    the one quoting rule of every CSV table the package writes.
    """
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# --------------------------------------------------------------------------
# Geography and physical context


class GeoLocation(Record):
    latitude: float
    longitude: float

    def __post_init__(self):
        _require_numbers(self, "latitude", "longitude")
        _require(-90.0 <= self.latitude <= 90.0, f"latitude out of range: {self.latitude}")
        _require(-180.0 <= self.longitude <= 180.0, f"longitude out of range: {self.longitude}")


class PhysicalEntity(Record):
    """A real-world object a device is attached to (a pole, a pipe, a wall)."""

    name: str
    location: GeoLocation

    def __post_init__(self):
        _require(bool(self.name), "physical entity needs a name")


# --------------------------------------------------------------------------
# Energy and data acquisition


class DeviceEnergyProfile(Record):
    """Battery and radio parameters of one device.

    Unit conventions follow the first-order sensing/transmission energy
    model: packet sizes in kilobits, supply voltage in volts, sense
    current in milliamperes, sense duration in milliseconds, electronics
    energy in nanojoules per bit, and amplifier energy in picojoules per
    bit per meter^n.  ``residual_energy_mah`` is the build-time starting
    charge; it always equals the capacity in a freshly built model.
    """

    battery_capacity_mah: float
    residual_energy_mah: float
    supply_voltage_v: float
    sense_current_ma: float
    sense_duration_ms: float
    packet_kb: float
    e_elec_nj_per_bit: float
    e_amp_pj_per_bit_m: float
    loss_exponent_n: int
    depletion_threshold_mah: float = 5.0

    def __post_init__(self):
        _require_numbers(self, "battery_capacity_mah", "residual_energy_mah", "supply_voltage_v",
                         "sense_current_ma", "sense_duration_ms", "packet_kb", "e_elec_nj_per_bit",
                         "e_amp_pj_per_bit_m", "loss_exponent_n", "depletion_threshold_mah")
        _require_whole(self.loss_exponent_n, "DeviceEnergyProfile.loss_exponent_n")
        _require(self.battery_capacity_mah > 0, "battery capacity must be positive")
        _require(0 <= self.residual_energy_mah <= self.battery_capacity_mah,
                 "residual charge must lie within the battery capacity")
        _require(self.supply_voltage_v > 0, "supply voltage must be positive")
        _require(self.sense_current_ma > 0, "sense current must be positive")
        _require(self.sense_duration_ms > 0, "sense duration must be positive")
        _require(self.packet_kb > 0, "packet size must be positive")
        _require(self.e_elec_nj_per_bit >= 0, "electronics energy must be non-negative")
        _require(self.e_amp_pj_per_bit_m >= 0, "amplifier energy must be non-negative")
        _require(self.loss_exponent_n >= 1, "path-loss exponent must be at least 1")
        _require(0 <= self.depletion_threshold_mah < self.battery_capacity_mah,
                 "depletion threshold must be below the battery capacity")


class ConstantSource(Record):
    value: float

    def __post_init__(self):
        _require_numbers(self, "value")


class UniformSource(Record):
    """Uniform draws over the closed interval [lo, hi], whose width must be finite.

    ``seed`` pins this source to its own stream; when None the stream is
    derived from the model seed and the owning device's name.
    """

    lo: float
    hi: float
    seed: int | None = None

    def __post_init__(self):
        _require_numbers(self, "lo", "hi", finite=False)
        if self.seed is not None:
            _require_whole(self.seed, "UniformSource.seed")
        bounds = f"[{_shown(self.lo)}, {_shown(self.hi)}]"
        _require(self.lo <= self.hi, f"uniform bounds out of order: {bounds}")
        _require(_finite(self.hi - self.lo),
                 f"uniform range {bounds} is too wide: hi - lo must be finite")
        _require(_finite(self.lo) and _finite(self.hi), f"uniform bounds must be finite: {bounds}")


class TraceSource(Record):
    """Replays a fixed sequence of readings, cycling at the end."""

    values: tuple[float, ...]

    def __post_init__(self):
        _require(len(self.values) > 0, "trace source needs at least one value")
        for value in self.values:
            if not _number(value):
                raise ModelError(f"TraceSource.values must be numbers, got {value!r}")
            _require(_finite(value), f"trace values must be finite, got {_shown(value)}")


DataSource = ConstantSource | UniformSource | TraceSource


# --------------------------------------------------------------------------
# Platforms and networking


class PlatformTier(Enum):
    CLOUD = "cloud"
    FOG = "fog"
    DEVICE = "device"


class ServicePort(Record):
    """A named service endpoint typed by a contract interface."""

    name: str
    interface: str
    protocol: str

    def __post_init__(self):
        _require(bool(self.name), "service port needs a name")
        _require(bool(self.interface), f"service port {self.name} needs an interface", self.name)
        _require(bool(self.protocol), f"service port {self.name} needs a protocol", self.name)


class Platform(Record):
    """A compute location: cloud datacenter, fog node, or edge device.

    Devices additionally carry an energy profile, a data source for their
    sensor readings, and the physical entity they are attached to.  All
    tiers may provide software and host services; whether a component may
    be deployed on a platform is decided by software matching alone.
    """

    name: str
    tier: PlatformTier
    location: GeoLocation
    cpu_frequency_ghz: float
    provided_software: frozenset[str]
    mtbf_hours: float
    mttr_hours: float
    services: tuple[ServicePort, ...] = ()
    attached_to: str | None = None
    energy: DeviceEnergyProfile | None = None
    data_source: DataSource | None = None

    def __post_init__(self):
        _require(bool(self.name), "platform needs a name")
        _require_numbers(self, "cpu_frequency_ghz", "mtbf_hours", "mttr_hours", subject=self.name)
        _require(self.cpu_frequency_ghz > 0, f"{self.name}: CPU frequency must be positive", self.name)
        _require(self.mtbf_hours > 0, f"{self.name}: MTBF must be positive", self.name)
        _require(self.mttr_hours >= 0, f"{self.name}: MTTR must be non-negative", self.name)
        if self.tier is PlatformTier.DEVICE:
            _require(self.energy is not None, f"device {self.name} needs an energy profile", self.name)
            _require(self.data_source is not None, f"device {self.name} needs a data source", self.name)
        else:
            _require(self.attached_to is None and self.energy is None and self.data_source is None,
                     f"{self.name}: entity attachment, energy, and data source are device-only",
                     self.name)


class NetworkLink(Record):
    """Undirected link between two platforms; endpoints are stored sorted."""

    endpoint_a: str
    endpoint_b: str
    protocol: str
    latency_ms: float
    distance_m: float

    def __post_init__(self):
        _require(self.endpoint_a != self.endpoint_b, f"link endpoints must differ: {self.endpoint_a}")
        _require_numbers(self, "latency_ms", "distance_m")
        _require(self.latency_ms >= 0, "link latency must be non-negative")
        _require(self.distance_m > 0, "link distance must be positive")

    @property
    def endpoints(self) -> frozenset[str]:
        return frozenset((self.endpoint_a, self.endpoint_b))


# --------------------------------------------------------------------------
# Contracts, tasks, and applications


class TaskKind(Enum):
    SENSE = "sense"
    ACTUATE = "actuate"
    TRANSMIT = "transmit"
    RECEIVE = "receive"
    COMPUTE = "compute"


class Task(Record):
    name: str
    kind: TaskKind

    def __post_init__(self):
        _require(bool(self.name), "task needs a name")


FIELD_KINDS = ("number", "integer", "text", "boolean")


class MessageField(Record):
    name: str
    kind: str = "number"

    def __post_init__(self):
        _require(self.kind in FIELD_KINDS, f"unknown field kind: {self.kind}")


class MessageType(Record):
    name: str
    fields: tuple[MessageField, ...] = ()

    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)


class ServiceContract(Record):
    """Pairs a provider interface with its consumer-side conjugate.

    The tasks listed here are what consumers may request; the message
    type describes the record a sensing task delivers.
    """

    name: str
    provider_interface: str
    consumer_interface: str
    tasks: tuple[Task, ...]
    message_type: MessageType

    def __post_init__(self):
        _require(bool(self.provider_interface), f"contract {self.name} needs a provider interface",
                 self.name)
        _require(bool(self.consumer_interface), f"contract {self.name} needs a consumer interface",
                 self.name)
        _require(self.provider_interface != self.consumer_interface,
                 f"contract {self.name}: conjugate interfaces must differ", self.name)
        _require(len(self.tasks) > 0, f"contract {self.name} needs at least one task", self.name)

    def task(self, name: str) -> Task | None:
        for t in self.tasks:
            if t.name == name:
                return t
        return None


CONDITION_OPS = ("<", "<=", ">", ">=", "=", "!=")


class ConditionExpr(Record):
    """Threshold test over one message field, e.g. ``level_cm > 20``."""

    field: str
    op: str
    threshold: float

    def __post_init__(self):
        _require(self.op in CONDITION_OPS, f"unknown condition operator: {self.op}")
        _require(bool(self.field), "condition needs a field name")
        _require_numbers(self, "threshold", finite=False)
        _require(_finite(self.threshold),
                 f"condition threshold must be finite, got {_shown(self.threshold)}")

    def render(self) -> str:
        return f"{self.field} {self.op} {format_number(self.threshold)}"


class PeriodicRequest(Record):
    """Requests a contract task every ``interval_ticks`` ticks."""

    task: str
    interval_ticks: int

    def __post_init__(self):
        _require_numbers(self, "interval_ticks")
        _require_whole(self.interval_ticks, "PeriodicRequest.interval_ticks", "ticks")
        _require(self.interval_ticks >= 1, "request interval must be at least 1 tick")


class EventRequest(Record):
    """Requests a contract task whenever a delivered sample satisfies the condition."""

    task: str
    condition: ConditionExpr


class Component(Record):
    name: str
    mean_cpu_demand_cycles: float = 1.0
    required_software: frozenset[str] = frozenset()
    required_interfaces: tuple[str, ...] = ()
    provided_service: ServicePort | None = None
    periodic_request: PeriodicRequest | None = None
    event_request: EventRequest | None = None

    def __post_init__(self):
        _require(bool(self.name), "component needs a name")
        _require_numbers(self, "mean_cpu_demand_cycles", subject=self.name)
        _require(self.mean_cpu_demand_cycles > 0, f"{self.name}: CPU demand must be positive", self.name)


class Application(Record):
    name: str
    region: GeoLocation
    components: tuple[Component, ...]

    def __post_init__(self):
        _require(len(self.components) > 0, f"application {self.name} needs at least one component",
                 self.name)

    @property
    def component_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.components)


class ExecutionModuleDecl(Record):
    """Reference to an analysis hook to run before the simulation loop."""

    module: str
    language: str = "python"
    code: str = "builtin"

    def __post_init__(self):
        _require(bool(self.module), "execution module declaration needs a module name")


class SimConfig(Record):
    """Static run parameters; the tick counter itself is simulation state."""

    simulation_time: int = 0
    tick_seconds: float = 60.0
    execution_modules: tuple[ExecutionModuleDecl, ...] = ()
    rng_seed: int = 0

    def __post_init__(self):
        _require_numbers(self, "simulation_time", "tick_seconds")
        _require_whole(self.simulation_time, "SimConfig.simulation_time", "ticks")
        _require_whole(self.rng_seed, "SimConfig.rng_seed")
        _require(self.simulation_time >= 0, "simulation time must be non-negative")
        _require(self.tick_seconds > 0, "tick duration must be positive")


class IoTSystemModel(Record):
    name: str
    platforms: tuple[Platform, ...] = ()
    networks: tuple[NetworkLink, ...] = ()
    applications: tuple[Application, ...] = ()
    contracts: tuple[ServiceContract, ...] = ()
    physical_entities: tuple[PhysicalEntity, ...] = ()
    interfaces: tuple[str, ...] = ()
    sim_config: SimConfig = SimConfig()

    def __post_init__(self):
        # The components of all applications are one category.
        if issues := [issue for category, names in (
                ("entity", [e.name for e in self.physical_entities]), ("interface", self.interfaces),
                ("platform", [p.name for p in self.platforms]),
                ("contract", [c.name for c in self.contracts]),
                ("component", [c.name for c in self.all_components()]),
                ("application", [a.name for a in self.applications]),
        ) for issue in repeated_names(category, names)]:
            raise ModelError(issues)

    def derived(self, compute, *args):
        """``compute(self, *args)``, worked out once per model object.

        Models never change, so a derived fact never goes stale.  The cache
        is not a dataclass field: equality, hashing and repr ignore it, and
        ``dataclasses.replace`` gives a model with an empty one.  Threads
        that race to fill an entry store equal values.
        """
        cache = self._derived
        key = (compute, args)
        try:
            return cache[key]
        except KeyError:
            value = cache[key] = compute(self, *args)
            return value

    @cached_property
    def _derived(self) -> dict:
        return {}

    def __getstate__(self) -> dict:
        """Copies and pickles carry the fields only; they refill their own cache."""
        state = dict(self.__dict__)
        state.pop("_derived", None)
        return state

    def platform(self, name: str) -> Platform | None:
        return self.derived(_platforms_by_name).get(name)

    def all_components(self) -> tuple[Component, ...]:
        return tuple(c for app in self.applications for c in app.components)

    def component(self, name: str) -> Component | None:
        return self.derived(_components_by_name).get(name)


def _platforms_by_name(model: IoTSystemModel) -> dict[str, Platform]:
    return {p.name: p for p in model.platforms}


def _components_by_name(model: IoTSystemModel) -> dict[str, Component]:
    return {c.name: c for c in model.all_components()}


# --------------------------------------------------------------------------
# Routing


class Route(Record):
    """A minimum-latency path between two platforms, endpoints included."""

    latency_ms: float
    path: tuple[str, ...]


def single_source_routes(model: IoTSystemModel, source: str) -> dict[str, Route]:
    """Dijkstra over link latencies from one platform to every reachable one.

    Ties are broken by comparing node-name paths, so equal-latency
    alternatives always resolve the same way.
    """
    if model.platform(source) is None:
        raise ModelError(f"unknown platform: {source!r}")
    adjacency: dict[str, list[tuple[str, float]]] = {}
    for link in model.networks:
        adjacency.setdefault(link.endpoint_a, []).append((link.endpoint_b, link.latency_ms))
        adjacency.setdefault(link.endpoint_b, []).append((link.endpoint_a, link.latency_ms))
    routes: dict[str, Route] = {}
    frontier: list[tuple[float, tuple[str, ...]]] = [(0.0, (source,))]
    while frontier:
        latency, path = heapq.heappop(frontier)
        node = path[-1]
        if node in routes:
            continue
        routes[node] = Route(latency, path)
        for neighbor, hop in adjacency.get(node, ()):
            if neighbor not in routes:
                heapq.heappush(frontier, (latency + hop, path + (neighbor,)))
    return routes
