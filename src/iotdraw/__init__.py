"""Design-time toolkit for service-oriented periodic IoT systems.

Parse a textual system model, validate it against the design rules,
execute it tick by tick with battery accounting, and explore the
deployment space: lifetime, data freshness, placement eligibility,
availability, and response time.
"""

from .analysis import (
    DeploymentScenario, SweepRow, SweepTable, device_periodic_component,
    enumerate_deployments, evaluate_scenarios, lifetime_sweep, platform_availability,
    predicted_lifetime, rank_scenarios, scenario_availability, scenario_text, scenarios_to_csv,
)
from .diagnostics import Diagnostic, SourceSpan
from .energy import (
    joules_to_mah, lifetime_closed_form, per_request_drain_mah, sense_energy, transmit_energy,
)
from .engine import (
    COLLECT, EventKind, FreshnessPolicy, SampleStream, SimEvent, SimulationReport,
    SimulationState, csv_event_sink, gateway_uplink, initial_state, run_simulation,
)
from .extmod import (
    ModuleRegistry, SystemSnapshot, default_registry, register_module, take_snapshot,
)
from .model import (
    Application, Component, ConditionExpr, ConstantSource, DeviceEnergyProfile,
    EventRequest, GeoLocation, IoTSystemModel, MessageField, MessageType,
    ModelError, NetworkLink, PeriodicRequest, PhysicalEntity, Platform,
    PlatformTier, Route, ServiceContract, ServicePort, SimConfig, Task, TaskKind,
    TraceSource, UniformSource, single_source_routes,
)
from .modelfmt import load_model, parse_model, serialize_model
from .rng import SplitMix64, derive_seed
from .validate import (
    DependencyEdge, TaskBinding, ValidationReport, check_protocol_bridge,
    dependency_edges, eligible_hosts, interface_providers, route_between, task_binding,
    validate_model,
)

__version__ = "0.1.0"
