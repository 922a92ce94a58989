"""Static validation: do the declared parts actually fit together?

Unique names are guaranteed by model construction, and resolvable
references by the parser (a model built in code is not checked for
them).  This layer checks the service-level story: every required
interface is governed by exactly one contract and realized by some
provider, ports are typed by contract interfaces, requested tasks exist,
event conditions talk about fields that some periodic sample can
deliver, and consumers can actually route to fixed providers under the
protocol rules.

Protocol bridging follows the fog cross-proxy convention: two ports may
interact either when they speak the same application protocol
(case-insensitive) or when at least one fog node lies on the network
path between them and can translate.
"""

from __future__ import annotations

from .diagnostics import ERROR, WARNING, Diagnostic, SourceSpan
from .model import (
    Component, IoTSystemModel, ModelError, Platform, PlatformTier, Record, Route,
    ServiceContract, ServicePort, Task, csv_field, single_source_routes,
)


# --------------------------------------------------------------------------
# Binding resolution (shared with the engine and the analyses)


class ProviderRef(Record):
    """One realization of an interface: a platform port or a component port."""

    kind: str  # "platform" | "component"
    name: str
    port: ServicePort


class TaskBinding(Record):
    """A requested task resolved to its contract and serving provider."""

    task: Task
    contract: ServiceContract
    provider: ProviderRef


def interface_providers(model: IoTSystemModel, interface: str) -> list[ProviderRef]:
    """All ports realizing an interface, sorted by provider name."""
    return list(model.derived(_find_providers, interface))


def _find_providers(model: IoTSystemModel, interface: str) -> list[ProviderRef]:
    refs = [ref for ref in model.derived(_service_ports) if ref.port.interface == interface]
    return sorted(refs, key=lambda r: (r.name, r.port.name))


def _service_ports(model: IoTSystemModel) -> list[ProviderRef]:
    """Every port of the model: the platforms', in order, then the components'."""
    return ([ProviderRef("platform", p.name, port) for p in model.platforms for port in p.services]
            + [ProviderRef("component", c.name, c.provided_service) for c in model.all_components()
               if c.provided_service is not None])


def contracts_for_task(model: IoTSystemModel, task_name: str) -> list[ServiceContract]:
    return [c for c in model.contracts if c.task(task_name) is not None]


def task_binding(model: IoTSystemModel, task_name: str) -> TaskBinding:
    """Resolve a task request to (contract, provider).

    When several providers realize the contract interface the
    lexicographically first provider name wins; the choice is
    deterministic and documented rather than load-balanced.
    """
    contracts = contracts_for_task(model, task_name)
    if not contracts:
        raise ModelError(f"no contract exposes task {task_name!r}")
    if len(contracts) > 1:
        names = ", ".join(sorted(c.name for c in contracts))
        raise ModelError(f"task {task_name!r} is ambiguous across contracts: {names}")
    contract = contracts[0]
    providers = interface_providers(model, contract.provider_interface)
    if not providers:
        raise ModelError(
            f"no provider realizes interface {contract.provider_interface!r} "
            f"(needed by task {task_name!r})")
    return TaskBinding(contract.task(task_name), contract, providers[0])


class DependencyEdge(Record):
    """A consumer component wired to the provider chosen for one requirement."""

    consumer: str
    interface: str
    provider_kind: str  # "platform" | "component"
    provider: str
    consumer_port: ServicePort | None
    provider_port: ServicePort


def dependency_edges(model: IoTSystemModel) -> list[DependencyEdge]:
    """One edge per (component, required interface), unresolvable ones skipped.

    Validation reports the skipped ones; analyses work on what resolves.
    """
    return list(model.derived(_find_edges))


def _find_edges(model: IoTSystemModel) -> list[DependencyEdge]:
    edges = []
    for component in model.all_components():
        for interface in component.required_interfaces:
            providers = interface_providers(model, interface)
            if not providers:
                continue
            chosen = providers[0]
            edges.append(DependencyEdge(
                consumer=component.name,
                interface=interface,
                provider_kind=chosen.kind,
                provider=chosen.name,
                consumer_port=component.provided_service,
                provider_port=chosen.port,
            ))
    return edges


# --------------------------------------------------------------------------
# Protocol bridging


def check_protocol_bridge(model: IoTSystemModel, consumer_port: ServicePort,
                          provider_port: ServicePort, path: tuple[str, ...]) -> bool:
    """True when the two ports can interact over the given path.

    Equal protocols always pass; differing protocols pass only when a fog
    platform sits somewhere on the path (endpoints included) to act as
    cross-proxy.  Symmetric in the two ports.
    """
    if consumer_port.protocol.lower() == provider_port.protocol.lower():
        return True
    for name in path:
        platform = model.platform(name)
        if platform is not None and platform.tier is PlatformTier.FOG:
            return True
    return False


def eligible_hosts(model: IoTSystemModel, component: Component) -> list[Platform]:
    """Platforms providing every software item the component requires, by name."""
    return list(model.derived(_hosts_providing, component.required_software))


def _hosts_providing(model: IoTSystemModel, software: frozenset[str]) -> list[Platform]:
    return [p for p in sorted(model.platforms, key=lambda p: p.name)
            if software <= p.provided_software]


def route_between(model: IoTSystemModel, source: str, target: str) -> Route | None:
    """Minimum-latency route between two platforms, or None when disconnected.

    Runs one Dijkstra pass per source platform and model object.  A
    platform reaches itself with zero latency.
    """
    route = model.derived(single_source_routes, source).get(target)
    if route is None and model.platform(target) is None:
        raise ModelError(f"unknown platform: {target!r}")
    return route


def edge_table(model: IoTSystemModel, edge: DependencyEdge) -> dict[tuple[str, str], float]:
    """The cost of each allowed (consumer host, provider host) pair of eligible hosts.

    A pair is allowed when the provider's platform is reachable from the
    consumer's and the two ports can interact over the route; its cost is
    the route's latency plus the provider's processing time.  A platform
    provider has its own platform as its only host.  Computed once per
    edge and model object.
    """
    return model.derived(_edge_table, edge)


def _edge_table(model: IoTSystemModel, edge: DependencyEdge) -> dict[tuple[str, str], float]:
    # The pools are read from the cache rather than through eligible_hosts:
    # perfbench counts a deployment space from the eligible_hosts calls that
    # enumerate_deployments makes itself.
    def pool(name: str) -> list[str]:
        return [p.name for p in model.derived(_hosts_providing,
                                              model.component(name).required_software)]

    providers = pool(edge.provider) if edge.provider_kind == "component" else [edge.provider]
    table = {}
    for consumer_host in pool(edge.consumer):
        for provider_host in providers:
            route = route_between(model, consumer_host, provider_host)
            if route is not None and (
                    consumer_host == provider_host or edge.consumer_port is None
                    or check_protocol_bridge(model, edge.consumer_port, edge.provider_port,
                                             route.path)):
                table[consumer_host, provider_host] = (
                    route.latency_ms + _processing_time_ms(model, edge, provider_host))
    return table


def _processing_time_ms(model: IoTSystemModel, edge: DependencyEdge, provider_host: str) -> float:
    """Time the provider spends producing its answer."""
    host = model.platform(provider_host)
    if edge.provider_kind == "component":
        cycles = model.component(edge.provider).mean_cpu_demand_cycles
        return cycles / (host.cpu_frequency_ghz * 1e9) * 1000.0
    return host.energy.sense_duration_ms if host.tier is PlatformTier.DEVICE else 0.0


# --------------------------------------------------------------------------
# The validator


class ValidationReport(Record):
    model_name: str
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return all(d.severity != ERROR for d in self.diagnostics)

    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    def to_text(self) -> str:
        lines = [d.render() for d in self.diagnostics]
        verdict = "ok" if self.ok else f"{len(self.errors())} error(s)"
        lines.append(f"model {self.model_name!r}: {verdict}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The findings as CSV, fields quoted by ``csv_field``, each record ending ``\r\n``."""
        lines = ["severity,code,message,file,line\r\n"]
        for d in self.diagnostics:
            fields = (d.severity, d.code, d.message, d.span.file if d.span else "",
                      str(d.span.line) if d.span else "")
            lines.append(",".join(map(csv_field, fields)) + "\r\n")
        return "".join(lines)


def validate_model(model: IoTSystemModel, path: str | None = None) -> ValidationReport:
    """Check contract-level consistency; see the module docstring for the rules.

    Pure function of the model: validating twice yields the same report.
    """
    span = SourceSpan(path, 1, 1) if path else None
    diagnostics: list[Diagnostic] = []

    def error(code: str, message: str):
        diagnostics.append(Diagnostic(ERROR, message, span, code=code))

    def warning(code: str, message: str):
        diagnostics.append(Diagnostic(WARNING, message, span, code=code))

    # A contract is the sole authority for its provider interface.
    by_interface: dict[str, list[ServiceContract]] = {}
    for contract in model.contracts:
        by_interface.setdefault(contract.provider_interface, []).append(contract)
    for interface, contracts in sorted(by_interface.items()):
        if len(contracts) > 1:
            error("ambiguous-contract", f"interface {interface!r} is declared by several contracts: "
                                        f"{', '.join(sorted(c.name for c in contracts))}")

    declared = {c.provider_interface for c in model.contracts} | {c.consumer_interface for c in model.contracts}
    consumer_sides = {c.consumer_interface: c.name for c in model.contracts}

    # Ports must be typed by contract interfaces.
    for ref in model.derived(_service_ports):
        if ref.port.interface not in declared:
            error("undeclared-interface",
                  f"service {ref.port.name!r} on {ref.kind} {ref.name!r} uses interface "
                  f"{ref.port.interface!r}, which no contract declares")

    # Requirements resolve through contracts to concrete providers.
    for component in model.all_components():
        for interface in component.required_interfaces:
            contracts = by_interface.get(interface, ())
            if not contracts:
                if interface in consumer_sides:
                    error("conjugate-mismatch",
                          f"component {component.name!r} requires {interface!r}, the consumer side of "
                          f"contract {consumer_sides[interface]!r}; requirements must name the provider side")
                else:
                    error("missing-contract",
                          f"component {component.name!r} requires interface {interface!r}, "
                          f"which no contract declares")
                continue
            if len(contracts) > 1:
                continue  # already reported as ambiguous-contract
            if not interface_providers(model, interface):
                error("no-provider",
                      f"nothing provides interface {interface!r} "
                      f"(required by component {component.name!r})")

    # Requested tasks must resolve to exactly one contract with a provider.
    for component in model.all_components():
        requests = []
        if component.periodic_request is not None:
            requests.append(("periodic", component.periodic_request.task))
        if component.event_request is not None:
            requests.append(("event", component.event_request.task))
        for which, task_name in requests:
            contracts = contracts_for_task(model, task_name)
            if not contracts:
                error("unknown-task",
                      f"component {component.name!r} has a {which} request for task "
                      f"{task_name!r}, which no contract exposes")
            elif len(contracts) > 1:
                error("ambiguous-task",
                      f"task {task_name!r} (requested by {component.name!r}) is exposed by several "
                      f"contracts: {', '.join(sorted(c.name for c in contracts))}")
            elif not interface_providers(model, contracts[0].provider_interface):
                error("no-provider",
                      f"nothing provides interface {contracts[0].provider_interface!r} "
                      f"(needed by task {task_name!r} requested by {component.name!r})")

    # Event conditions must reference a field some periodic sample delivers.
    for app in model.applications:
        fields: set[str] = set()
        has_periodic = False
        for component in app.components:
            if component.periodic_request is None:
                continue
            has_periodic = True
            contracts = contracts_for_task(model, component.periodic_request.task)
            if len(contracts) == 1:
                fields.update(contracts[0].message_type.field_names())
        for component in app.components:
            if component.event_request is None:
                continue
            condition = component.event_request.condition
            if not has_periodic:
                warning("event-never-triggers",
                        f"event request of {component.name!r} can never trigger: application "
                        f"{app.name!r} has no periodic request to piggyback on")
            elif condition.field not in fields:
                error("unknown-condition-field",
                      f"condition of {component.name!r} tests field {condition.field!r}, which no "
                      f"periodic sample in application {app.name!r} delivers")

    # Consumers must be able to reach their providers under the protocol
    # rules from at least one pair of software-eligible hosts.
    for component in model.all_components():
        if not eligible_hosts(model, component):
            warning("no-eligible-host",
                    f"no platform provides the software component {component.name!r} requires")

    for edge in dependency_edges(model):
        if eligible_hosts(model, model.component(edge.consumer)) and not edge_table(model, edge):
            error("protocol-unroutable",
                  f"component {edge.consumer!r} cannot reach provider {edge.provider!r} of interface "
                  f"{edge.interface!r} from any eligible host under the protocol rules")

    return ValidationReport(model.name, tuple(diagnostics))
