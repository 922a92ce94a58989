"""Shared fixtures and model builders for the test suite."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

MODELS_DIR = Path(__file__).resolve().parents[1] / "models"


@pytest.fixture(scope="session")
def models_dir() -> Path:
    return MODELS_DIR


@pytest.fixture(scope="session")
def padova_model():
    from iotdraw import load_model
    model = load_model(MODELS_DIR / "padova_fw.iot")
    assert not isinstance(model, list)
    return model


@pytest.fixture(scope="session")
def freshness_model():
    from iotdraw import load_model
    model = load_model(MODELS_DIR / "freshness_demo.iot")
    assert not isinstance(model, list)
    return model


# A second, weaker sensor for freshness_demo.iot: it has its own contract,
# consumer and application, and depletes at tick 199, long before
# level_sensor_1 (tick 399).
SECOND_SENSOR = """
entity "tank_2" {
  location = (44.5, 11.3)
}

interface "LevelSensor2" {}
interface "LevelSensor2Client" {}

device "level_sensor_2" {
  location = (44.5, 11.3)
  cpu_ghz = 0.1
  attached_to = "tank_2"
  mtbf_hours = 800
  mttr_hours = 100
  battery {
    capacity_mah = 5.03
    supply_voltage_v = 3
    depletion_threshold_mah = 5
  }
  sense {
    current_ma = 25
    duration_ms = 10
  }
  transmit {
    packet_kb = 2
    e_elec_nj_per_bit = 50
    e_amp_pj_per_bit_m = 100
    loss_exponent = 2
  }
  data = uniform(0, 30) seed 7
  service "LevelPort2" {
    interface = "LevelSensor2"
    protocol = "CoAP"
  }
}

link "level_sensor_2" <-> "fog_hub" {
  protocol = "CoAP"
  latency_ms = 2
  distance_m = 10
}

contract "RequestLevelSensor2" {
  provider_interface = "LevelSensor2"
  consumer_interface = "LevelSensor2Client"
  task "MonitorLevel2" = sense
  message "LevelData2" {
    field "level_cm" = number
  }
}

component "Monitor2" {
  cpu_demand_cycles = 500
  requires_software = ["jboss"]
  requires = ["LevelSensor2"]
  periodic "MonitorLevel2" {
    interval_ticks = 1
  }
}

application "TankWatch2" {
  region = (44.5, 11.3)
  components = ["Monitor2"]
}
"""


@pytest.fixture()
def two_sensor_file(tmp_path) -> str:
    """freshness_demo.iot plus SECOND_SENSOR, written to a temporary file."""
    path = tmp_path / "two_sensors.iot"
    text = (MODELS_DIR / "freshness_demo.iot").read_text(encoding="utf-8")
    path.write_text(text + SECOND_SENSOR, encoding="utf-8")
    return str(path)


FRESHNESS_LINK = """link "level_sensor_1" <-> "fog_hub" {
  protocol = "CoAP"
  latency_ms = 2
  distance_m = 10
}
"""


@pytest.fixture()
def no_link_file(tmp_path) -> str:
    """freshness_demo.iot without its one link, written to a temporary file."""
    path = tmp_path / "no_link.iot"
    text = (MODELS_DIR / "freshness_demo.iot").read_text(encoding="utf-8")
    assert FRESHNESS_LINK in text
    path.write_text(text.replace(FRESHNESS_LINK, ""), encoding="utf-8")
    return str(path)


DUPLICATE_CONTRACT = """
contract "Dup" {
  provider_interface = "LevelSensor"
  consumer_interface = "LevelSensorClient"
  task "MonitorLevel" = sense
}
"""
# How binding the task 'MonitorLevel' fails in each ``unbound_task_text`` case.
UNBOUND_TASK_ERRORS = {
    "ambiguous": "task 'MonitorLevel' is ambiguous across contracts: Dup, RequestLevelSensor",
    "no-provider": "no provider realizes interface 'Orphan' (needed by task 'MonitorLevel')",
}


def unbound_task_text(case: str) -> str:
    """freshness_demo.iot with its task 'MonitorLevel' left without one binding:
    exposed by a second contract ("ambiguous"), or its contract's provider
    interface provided by nothing ("no-provider")."""
    text = (MODELS_DIR / "freshness_demo.iot").read_text(encoding="utf-8")
    if case == "ambiguous":
        return text + DUPLICATE_CONTRACT
    declared = 'interface "LevelSensorClient" {}'
    return (text.replace(declared, declared + '\ninterface "Orphan" {}')
            .replace('provider_interface = "LevelSensor"', 'provider_interface = "Orphan"'))


TINY_TEMPLATE = """
system "tiny" {{
  simulation_time = {sim_time}
  tick_seconds = 60
  rng_seed = {rng_seed}
}}

entity "post_1" {{
  location = (1.0, 2.0)
}}

fog "hub" {{
  location = (1.0, 2.0)
  cpu_ghz = 1.6
  provides_software = ["jboss"]
  mtbf_hours = 99
  mttr_hours = 1
}}

device "probe_1" {{
  location = (1.0, 2.0)
  cpu_ghz = 0.1
  attached_to = "post_1"
  mtbf_hours = 800
  mttr_hours = 100
  battery {{
    capacity_mah = {capacity}
    supply_voltage_v = 3
    depletion_threshold_mah = 5
  }}
  sense {{
    current_ma = 25
    duration_ms = 10
  }}
  transmit {{
    packet_kb = 2
    e_elec_nj_per_bit = 50
    e_amp_pj_per_bit_m = 100
    loss_exponent = 2
  }}
  data = {data}
  service "ProbePort" {{
    interface = "Probe"
    protocol = "CoAP"
  }}
}}

link "probe_1" <-> "hub" {{
  protocol = "CoAP"
  latency_ms = 2
  distance_m = 10
}}

contract "RequestProbe" {{
  provider_interface = "Probe"
  consumer_interface = "ProbeClient"
  task "ReadProbe" = sense
  message "ProbeData" {{
    field "level" = number
  }}
}}

component "Watcher" {{
  cpu_demand_cycles = 500
  requires_software = ["jboss"]
  requires = ["Probe"]
  periodic "ReadProbe" {{
    interval_ticks = {interval}
  }}
}}

application "TinyApp" {{
  region = (1.0, 2.0)
  components = ["Watcher"]
}}
"""


def tiny_text(*, sim_time=10, interval=2, capacity=100, rng_seed=0,
              data='trace [5, 10, 20, 40]') -> str:
    """A one-device, one-consumer model; slots cover the common knobs."""
    return TINY_TEMPLATE.format(sim_time=sim_time, interval=interval,
                                capacity=capacity, rng_seed=rng_seed, data=data)


def tiny_model(**kwargs):
    from iotdraw import parse_model
    model = parse_model(tiny_text(**kwargs), "<tiny>")
    assert not isinstance(model, list), [d.render() for d in model]
    return model


ALARMED_TEMPLATE = """
system "alarmed" {{
  simulation_time = {sim_time}
  tick_seconds = 60
  rng_seed = {rng_seed}
}}

entity "post_1" {{
  location = (1.0, 2.0)
}}

fog "hub" {{
  location = (1.0, 2.0)
  cpu_ghz = 1.6
  provides_software = ["jboss"]
  mtbf_hours = 99
  mttr_hours = 1
}}

device "probe_1" {{
  location = (1.0, 2.0)
  cpu_ghz = 0.1
  attached_to = "post_1"
  mtbf_hours = 800
  mttr_hours = 100
  battery {{
    capacity_mah = {capacity}
    supply_voltage_v = 3
    depletion_threshold_mah = 5
  }}
  sense {{
    current_ma = 25
    duration_ms = 10
  }}
  transmit {{
    packet_kb = 2
    e_elec_nj_per_bit = 50
    e_amp_pj_per_bit_m = 100
    loss_exponent = 2
  }}
  data = {data}
  service "ProbePort" {{
    interface = "Probe"
    protocol = "CoAP"
  }}
}}

device "bell_1" {{
  location = (1.0, 2.0)
  cpu_ghz = 0.1
  attached_to = "post_1"
  mtbf_hours = 800
  mttr_hours = 100
  battery {{
    capacity_mah = 1000
    supply_voltage_v = 3
    depletion_threshold_mah = 5
  }}
  sense {{
    current_ma = 25
    duration_ms = 10
  }}
  transmit {{
    packet_kb = 2
    e_elec_nj_per_bit = 50
    e_amp_pj_per_bit_m = 100
    loss_exponent = 2
  }}
  data = constant(0)
  service "BellPort" {{
    interface = "Bell"
    protocol = "CoAP"
  }}
}}

link "probe_1" <-> "hub" {{
  protocol = "CoAP"
  latency_ms = 2
  distance_m = 10
}}

link "bell_1" <-> "hub" {{
  protocol = "CoAP"
  latency_ms = 2
  distance_m = 12
}}

contract "RequestProbe" {{
  provider_interface = "Probe"
  consumer_interface = "ProbeClient"
  task "ReadProbe" = sense
  message "ProbeData" {{
    field "level" = number
  }}
}}

contract "RequestBell" {{
  provider_interface = "Bell"
  consumer_interface = "BellClient"
  task "RingBell" = actuate
  message "BellCommand" {{
    field "active" = boolean
  }}
}}

component "Watcher" {{
  cpu_demand_cycles = 500
  requires_software = ["jboss"]
  requires = ["Probe"]
  periodic "ReadProbe" {{
    interval_ticks = {interval}
  }}
  event "RingBell" {{
    condition = "{condition}"
  }}
}}

application "AlarmedApp" {{
  region = (1.0, 2.0)
  components = ["Watcher"]
}}
"""


def alarmed_model(*, sim_time=10, interval=1, capacity=100, rng_seed=0,
                  data='trace [30, 5]', condition='level > 20'):
    """Tiny model plus an actuator device and an event request."""
    from iotdraw import parse_model
    text = ALARMED_TEMPLATE.format(sim_time=sim_time, interval=interval,
                                   capacity=capacity, rng_seed=rng_seed,
                                   data=data, condition=condition)
    model = parse_model(text, "<alarmed>")
    assert not isinstance(model, list), [d.render() for d in model]
    return model


# --- reference implementations -------------------------------------------
# Deliberately written from scratch (Floyd-Warshall, plain nested loops)
# so agreement with the package is meaningful.


def _reference_paths(model):
    names = sorted(p.name for p in model.platforms)
    index = {name: i for i, name in enumerate(names)}
    count = len(names)
    inf = float("inf")
    dist = [[inf] * count for _ in range(count)]
    step = [[None] * count for _ in range(count)]
    for i in range(count):
        dist[i][i] = 0.0
    for link in model.networks:
        a, b = index[link.endpoint_a], index[link.endpoint_b]
        if link.latency_ms < dist[a][b]:
            dist[a][b] = dist[b][a] = link.latency_ms
            step[a][b] = b
            step[b][a] = a
    for k in range(count):
        for i in range(count):
            for j in range(count):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
                    step[i][j] = step[i][k]

    def path(a_name, b_name):
        i, j = index[a_name], index[b_name]
        if i == j:
            return [a_name]
        if step[i][j] is None:
            return None
        walk = [i]
        while walk[-1] != j:
            walk.append(step[walk[-1]][j])
        return [names[n] for n in walk]

    def latency(a_name, b_name):
        return dist[index[a_name]][index[b_name]]

    return latency, path


def _reference_provider(model, interface):
    candidates = []
    for platform in model.platforms:
        for port in platform.services:
            if port.interface == interface:
                candidates.append(("platform", platform.name, port))
    for component in model.all_components():
        port = component.provided_service
        if port is not None and port.interface == interface:
            candidates.append(("component", component.name, port))
    if not candidates:
        return None
    return min(candidates, key=lambda c: (c[1], c[2].name))


def _reference_edges(model):
    edges = []
    for component in sorted(model.all_components(), key=lambda c: c.name):
        for interface in component.required_interfaces:
            found = _reference_provider(model, interface)
            if found is None:
                continue
            kind, name, port = found
            edges.append((component.name, component.provided_service,
                          kind, name, port))
    return edges


def _reference_protocol_ok(model, consumer_port, provider_port, path):
    if consumer_port is None or provider_port is None:
        return True
    if consumer_port.protocol.lower() == provider_port.protocol.lower():
        return True
    from iotdraw.model import PlatformTier
    return any(model.platform(n).tier is PlatformTier.FOG for n in path)


def reference_scenarios(model):
    """Ground truth for deployment enumeration, as (id, {component: platform})."""
    import itertools

    latency, path = _reference_paths(model)
    edges = _reference_edges(model)
    components = sorted(model.all_components(), key=lambda c: c.name)
    platforms = sorted(model.platforms, key=lambda p: p.name)
    pools = []
    for component in components:
        pool = [p.name for p in platforms
                if set(component.required_software) <= set(p.provided_software)]
        pools.append(pool)
    if not components or any(not pool for pool in pools):
        return []

    survivors = []
    for choice in itertools.product(*pools):
        assignment = dict(zip((c.name for c in components), choice))
        keep = True
        for consumer, consumer_port, kind, provider, provider_port in edges:
            host = assignment[consumer]
            target = provider if kind == "platform" else assignment[provider]
            if host == target:
                continue
            walk = path(host, target)
            if walk is None:
                keep = False
                break
            if not _reference_protocol_ok(model, consumer_port, provider_port, walk):
                keep = False
                break
        if keep:
            survivors.append((len(survivors) + 1, assignment))
    return survivors


def reference_unroutable(model):
    """Ground truth for validation's protocol-unroutable verdict.

    The (consumer, provider, interface) of every dependency edge whose
    consumer has an eligible host but no pair of eligible hosts (the
    provider's own platform when it is one) that are equal, or connected
    by a shortest path the two ports can use.
    """
    _, path = _reference_paths(model)

    def hosts(component):
        return [p.name for p in model.platforms
                if set(component.required_software) <= set(p.provided_software)]

    unroutable = set()
    for consumer, consumer_port, kind, provider, provider_port in _reference_edges(model):
        consumer_hosts = hosts(model.component(consumer))
        if not consumer_hosts:
            continue
        provider_hosts = [provider] if kind == "platform" else hosts(model.component(provider))
        if not any(host == target or (
                path(host, target) is not None and _reference_protocol_ok(
                    model, consumer_port, provider_port, path(host, target)))
                   for host in consumer_hosts for target in provider_hosts):
            unroutable.add((consumer, provider, provider_port.interface))
    return unroutable


def reference_edge_costs(model):
    """Ground truth for ``validate.edge_table``, keyed by (consumer, interface).

    Each edge maps every pair of eligible hosts (the provider's own
    platform when it is one) that are equal, or connected by a shortest
    path the two ports can use, to the path's latency plus the provider's
    processing time.
    """
    latency, path = _reference_paths(model)

    def hosts(component):
        return [p.name for p in model.platforms
                if set(component.required_software) <= set(p.provided_software)]

    tables = {}
    for consumer, consumer_port, kind, provider, provider_port in _reference_edges(model):
        provider_hosts = [provider] if kind == "platform" else hosts(model.component(provider))
        tables[consumer, provider_port.interface] = {
            (host, target): latency(host, target) + reference_processing_ms(
                model, kind, provider, target)
            for host in hosts(model.component(consumer)) for target in provider_hosts
            if host == target or (path(host, target) is not None and _reference_protocol_ok(
                model, consumer_port, provider_port, path(host, target)))}
    return tables


def reference_availability(model, assignment):
    result = 1.0
    for name in sorted(set(assignment.values())):
        platform = model.platform(name)
        result *= platform.mtbf_hours / (platform.mtbf_hours + platform.mttr_hours)
    return result


def reference_response_time(model, assignment):
    latency, _ = _reference_paths(model)
    total = 0.0
    for consumer, _, kind, provider, _ in _reference_edges(model):
        host = assignment[consumer]
        target = provider if kind == "platform" else assignment[provider]
        hop = 0.0 if host == target else latency(host, target)
        if hop == float("inf"):
            return float("inf")
        total += hop + reference_processing_ms(model, kind, provider, target)
    return total


def reference_processing_ms(model, kind, provider, target):
    """Time the provider spends answering on platform ``target``."""
    from iotdraw.model import PlatformTier

    if kind == "component":
        cycles = model.component(provider).mean_cpu_demand_cycles
        return cycles / (model.platform(target).cpu_frequency_ghz * 1e9) * 1000.0
    if model.platform(provider).tier is PlatformTier.DEVICE:
        return model.platform(provider).energy.sense_duration_ms
    return 0.0


def random_placement_model(seed: int):
    """A random multi-platform model for exercising deployment enumeration.

    Latencies are drawn from a continuous range so shortest paths are
    unique and a reference implementation must agree on them.  Some
    interfaces come from platform service ports, others from components,
    and each interface has exactly one provider.
    """
    rnd = random.Random(seed)
    software_pool = ["spark", "jboss", "dotnet", "node"]
    protocols = ["HTTP", "CoAP"]

    def service(name, interface):
        return [f'  service "{name}" {{', f'    interface = "{interface}"',
                f'    protocol = "{rnd.choice(protocols)}"', "  }"]

    platform_count = rnd.randint(5, 7)
    platforms = []
    for index in range(platform_count):
        tier = rnd.choice(["cloud", "fog", "fog"])
        platforms.append([
            f'{tier} "p{index:02d}" {{', f"  location = ({index}, 0)",
            f"  cpu_ghz = {rnd.choice([1.0, 1.6, 2.5, 3.0])}",
            f"  provides_software = {json.dumps(rnd.sample(software_pool, rnd.randint(1, 3)))}",
            f"  mtbf_hours = {rnd.randint(500, 2000)}", f"  mttr_hours = {rnd.randint(1, 50)}"])

    # a few platform service ports, each with a unique interface
    port_interfaces = []
    for index, lines in enumerate(platforms):
        if rnd.random() < 0.4:
            lines += service(f"port{index}", f"PortSvc{index}")
            port_interfaces.append(f"PortSvc{index}")

    component_count = rnd.randint(3, 4)
    components = []
    component_interfaces = []
    for index in range(component_count):
        provides = None
        lines = [f'component "c{index}" {{']
        if rnd.random() < 0.5:
            provides = f"CompSvc{index}"
            lines += service(f"csvc{index}", provides)
            component_interfaces.append(provides)
        lines += [f"  cpu_demand_cycles = {rnd.randint(100, 4000)}",
                  f"  requires_software = {json.dumps(rnd.sample(software_pool, rnd.randint(0, 2)))}"]
        components.append((provides, lines))
    all_interfaces = port_interfaces + component_interfaces
    for provides, lines in components:
        candidates = [i for i in all_interfaces if i != provides]
        if candidates:
            requires = rnd.sample(candidates, rnd.randint(0, min(2, len(candidates))))
            lines.append(f"  requires = {json.dumps(requires)}")

    contracts = [[f'contract "Use{interface}" {{', f'  provider_interface = "{interface}"',
                  f'  consumer_interface = "{interface}Client"',
                  f'  task "Call{interface}" = compute']
                 for interface in all_interfaces]

    links = []
    for a in range(platform_count):
        for b in range(a + 1, platform_count):
            if rnd.random() < 0.45:
                links.append([f'link "p{a:02d}" <-> "p{b:02d}" {{',
                              f'  protocol = "{rnd.choice(protocols + ["IP"])}"',
                              f"  latency_ms = {rnd.random() * 100 + 0.001!r}",
                              f"  distance_m = {rnd.random() * 100 + 1.0!r}"])

    names = [f"c{index}" for index in range(component_count)]
    blocks = platforms + [lines for _, lines in components] + contracts + links
    text = "\n".join([f'system "random_{seed}" {{}}',
                      f"application \"app\" {{\n  components = {json.dumps(names)}\n}}",
                      *("\n".join(lines + ["}"]) for lines in blocks)])
    from iotdraw import parse_model
    model = parse_model(text, f"<random_{seed}>")
    assert not isinstance(model, list), [d.render() for d in model]
    return model


def thousand_scenario_model():
    """Twelve components over fifty platforms, 2^10 eligible placements.

    Ten components can live on either of two hosts, two are pinned, and
    every host reaches the shared service hub over its own link.  The
    spare platforms advertise software nobody wants.
    """
    blocks = ['system "scale" {}',
              'cloud "core" {\n  cpu_ghz = 3 provides_software = ["base"]\n'
              '  mtbf_hours = 2000 mttr_hours = 2\n'
              '  service "hub" { interface = "Hub" protocol = "HTTP" }\n}',
              'contract "UseHub" {\n  provider_interface = "Hub" consumer_interface = "HubClient"\n'
              '  task "CallHub" = compute\n}']
    platforms = 1
    components = []
    latency = 0.5
    for index in range(12):
        token = f"sw{index:02d}"
        for copy in range(2 if index < 10 else 1):
            name = f"host_{index:02d}_{copy}"
            blocks.append(f'fog "{name}" {{ cpu_ghz = 1.6 provides_software = ["{token}"] '
                          f'mtbf_hours = {900 + index * 10 + copy} mttr_hours = {20 + copy} }}')
            platforms += 1
            latency += 1.37
            blocks.append(f'link "{name}" <-> "core" {{ protocol = "HTTP" latency_ms = {latency!r} }}')
        components.append(f"comp_{index:02d}")
        blocks.append(f'component "comp_{index:02d}" {{ cpu_demand_cycles = {100 * (index + 1)} '
                      f'requires_software = ["{token}"] requires = ["Hub"] }}')
    blocks += [f'fog "spare_{index:02d}" {{ provides_software = ["idle{index}"] }}'
               for index in range(50 - platforms)]
    blocks.append(f'application "app" {{ components = {json.dumps(components)} }}')
    from iotdraw import parse_model
    model = parse_model("\n".join(blocks), "<scale>")
    assert not isinstance(model, list), [d.render() for d in model]
    return model


# --- reference engine ------------------------------------------------------
# A plain tick-by-tick simulator written from docs/determinism.md and the
# run rules of the engine's docstring.  It shares rng.py and the energy
# formulas with the package and nothing of engine.py, so agreement between
# the two is evidence about both.

_REFERENCE_OPS = {
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b, ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b, "=": lambda a, b: a == b, "!=": lambda a, b: a != b,
}


def _reference_uplink_distance(model, device):
    """The distance of the device's lowest-latency link; ties go to the neighbor first by name."""
    best = None
    for link in model.networks:
        if device not in (link.endpoint_a, link.endpoint_b):
            continue
        other = link.endpoint_b if link.endpoint_a == device else link.endpoint_a
        if best is None or (link.latency_ms, other) < best[0]:
            best = ((link.latency_ms, other), link.distance_m)
    return None if best is None else best[1]


def reference_run(model, max_age=0, halt_on=(), *, seed=None, distance_overrides=None):
    """One run visiting every tick 0..simulation_time, as a SimpleNamespace.

    It has ``events`` (a list of ``(tick, kind, subject, detail)``),
    ``counts``, ``residual_mah``, ``lifetimes``, ``final_tick`` and
    ``halted_by``, each as ``run_simulation`` reports it.
    """
    import functools
    import itertools
    from collections import Counter
    from types import SimpleNamespace

    from iotdraw.energy import joules_to_mah, sense_energy, transmit_energy
    from iotdraw.model import ConstantSource, PlatformTier, TaskKind, UniformSource
    from iotdraw.rng import SplitMix64, derive_seed

    run_seed = model.sim_config.rng_seed if seed is None else seed
    devices = {}
    for platform in model.platforms:
        if platform.tier is not PlatformTier.DEVICE:
            continue
        profile, source = platform.energy, platform.data_source
        distance = _reference_uplink_distance(model, platform.name)
        if distance is not None:
            distance = (distance_overrides or {}).get(platform.name, distance)
        sense_j = sense_energy(profile)
        transmit_j = None if distance is None else transmit_energy(profile, distance)
        if isinstance(source, ConstantSource):
            draw = itertools.repeat(source.value).__next__
        elif isinstance(source, UniformSource):
            rng = SplitMix64(derive_seed(run_seed, "source", platform.name)
                             if source.seed is None else source.seed)
            draw = functools.partial(rng.uniform, source.lo, source.hi)
        else:
            draw = itertools.cycle(source.values).__next__
        devices[platform.name] = SimpleNamespace(
            name=platform.name, residual=profile.residual_energy_mah,
            threshold=profile.depletion_threshold_mah, draw=draw,
            costs=(joules_to_mah(sense_j, profile.supply_voltage_v),
                   None if transmit_j is None
                   else joules_to_mah(transmit_j, profile.supply_voltage_v)),
            detail=f"sense_j={sense_j!r} transmit_j={transmit_j!r} distance_m={distance!r}",
            value=None, at=None, halts=platform.name in halt_on)

    def bind(task):
        """(contract, provider name, provider's device or None) serving a task."""
        (contract,) = [c for c in model.contracts if any(t.name == task for t in c.tasks)]
        ports = [(p.name, port.name, p.name in devices) for p in model.platforms
                 for port in p.services if port.interface == contract.provider_interface]
        ports += [(c.name, c.provided_service.name, False) for c in model.all_components()
                  if c.provided_service and c.provided_service.interface == contract.provider_interface]
        name, _, is_device = min(ports)
        return contract, name, devices[name] if is_device else None

    events, counts, lifetimes = [], Counter(), {}
    halted = []

    def request(kind, consumer, task, now, condition=None, note=""):
        contract, provider, device = bind(task)
        counts[kind] += 1
        steps = [t for t in contract.tasks if t.kind in (TaskKind.SENSE, TaskKind.ACTUATE)]
        senses = any(t.kind is TaskKind.SENSE for t in steps)
        fresh, failure = False, ""
        if device is not None:
            if senses and max_age and device.at is not None and now - device.at <= max_age:
                fresh = True
            elif device.residual <= device.threshold:
                failure = " status=failed:provider-depleted"
            elif steps and device.costs[1] is None:
                failure = " status=failed:no-route"
        rendered = "" if condition is None else f" condition={condition.render()}"
        events.append((now, kind, consumer, f"task={task} provider={provider}{rendered}{note}{failure}"))
        if device is None or failure:
            return None
        value = None
        for step in steps:
            if step.kind is TaskKind.ACTUATE:
                counts["Actuation"] += 1
                events.append((now, "Actuation", device.name, f"task={step.name} by={consumer}"))
            elif fresh:
                value = device.value
                counts["CacheHit"] += 1
                events.append((now, "CacheHit", device.name,
                               f"value={value!r} age={now - device.at} consumer={consumer}"))
            else:
                value = device.draw()
                counts["SenseSample"] += 1
                events.append((now, "SenseSample", device.name,
                               f"value={value!r} {device.detail} consumer={consumer}"))
                was_depleted = device.residual <= device.threshold
                for cost in device.costs:
                    device.residual -= cost
                    if not device.residual > 0.0:
                        device.residual = 0.0
                if device.residual <= device.threshold and not was_depleted:
                    lifetimes[device.name] = now
                    counts["DeviceDepleted"] += 1
                    events.append((now, "DeviceDepleted", device.name,
                                   f"residual_mah={device.residual!r}"))
                    if device.halts and not halted:
                        halted.append(device.name)
                device.value, device.at = value, now
                fresh = bool(max_age)  # a later sense task of the contract reads the new value
        return value

    plans = []
    for app in model.applications:
        watchers = [c for c in app.components if c.event_request is not None]
        for component in app.components:
            if component.periodic_request is None:
                continue
            fields = {f.name for f in bind(component.periodic_request.task)[0].message_type.fields}
            plans.append((component, [w for w in watchers
                                      if w.event_request.condition.field in fields]))
    final_tick = model.sim_config.simulation_time
    for now in range(model.sim_config.simulation_time + 1):
        for component, watchers in plans:
            if (now + 1) % component.periodic_request.interval_ticks:
                continue
            value = request("PeriodicRequest", component.name, component.periodic_request.task, now)
            if value is not None:
                for watcher in watchers:
                    condition = watcher.event_request.condition
                    if _REFERENCE_OPS[condition.op](value, condition.threshold):
                        request("EventRequest", watcher.name, watcher.event_request.task, now,
                                condition, f" value={value!r}")
            if halted:
                break
        if halted:
            final_tick = now
            break
    return SimpleNamespace(
        events=events, counts=dict(sorted(counts.items())),
        residual_mah={name: d.residual for name, d in devices.items()},
        lifetimes={name: lifetimes.get(name) for name in devices}, final_tick=final_tick,
        halted_by=halted[0] if halted else None)
