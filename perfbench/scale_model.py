"""Seeded deployment-space model for the ``deploy_scale`` workload.

The construction follows the thousand-scenario model of acceptance
criterion 09: every free component can live on exactly two hosts, a
pinned broker sits on the shared ``core`` cloud, and spare platforms
advertise software nobody wants.  Free component ``i`` runs on fog
``h{i}a`` (always feasible: it links straight to ``core`` and, being a
fog, bridges any protocol) or on the alternate ``h{i}b``.  For
``blocked`` of the free components the alternate is infeasible, either
unreachable (no link at all) or protocol-incompatible (a cloud linked
straight to ``core``, a CoAP port against an HTTP provider, and no fog
on the path).  Every other alternate is feasible.

Half the free components consume the ``core`` platform's Hub service
(a platform provider), the rest consume the broker's service (a
component provider), so both kinds of dependency edge are scored.

Because each free component's placement is checked against fixed
providers only, feasibility factorises: the feasible count is
``2 ** (free - blocked)`` out of ``2 ** free`` candidates, and the best
response time is the per-component minimum summed in component order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CORE_GHZ = 3.0
TOTAL_PLATFORMS = 50  # core, two hosts per free component, spares


@dataclass(frozen=True)
class ScaleModel:
    text: str
    name: str
    free: int
    blocked_hosts: tuple[str, ...]
    candidates: int
    feasible: int
    best_response_ms: float


def _platform(kind: str, name: str, ghz: float, software: str, mtbf: float, mttr: float,
              service: str = "") -> str:
    return (f'{kind} "{name}" {{\n  location = (45.0, 11.0)\n  cpu_ghz = {ghz}\n'
            f'  provides_software = ["{software}"]\n  mtbf_hours = {mtbf}\n'
            f'  mttr_hours = {mttr}\n{service}}}\n')


def _link(a: str, b: str, latency: float) -> str:
    return (f'link "{a}" <-> "{b}" {{\n  protocol = "IP"\n  latency_ms = {latency}\n'
            f'  distance_m = 1000\n}}\n')


def _service(name: str, interface: str, protocol: str) -> str:
    return f'  service "{name}" {{\n    interface = "{interface}"\n    protocol = "{protocol}"\n  }}\n'


def generate(seed: int, free: int = 14, blocked: int = 2) -> ScaleModel:
    """Model text for ``free`` two-host components, ``blocked`` of them with a bad alternate."""
    if not 0 <= blocked <= free or 2 * free + 1 > TOTAL_PLATFORMS:
        raise ValueError(f"bad scale parameters: free={free} blocked={blocked}")
    rnd = random.Random(seed)
    name = "deploy_scale"
    broker_cycles = 1000.0 * rnd.randint(1, 9)
    # Fixed, evenly spaced positions: where the first failing edge sits
    # sets how much of each infeasible candidate enumeration checks, so
    # the seed must not move it.
    blocked_set = {(j + 1) * free // blocked - 1 for j in range(blocked)}
    unreachable_first = rnd.random() < 0.5
    blocks = [f'system "{name}" {{\n  simulation_time = 0\n  tick_seconds = 60\n'
              f'  rng_seed = {seed}\n}}\n',
              _platform("cloud", "core", CORE_GHZ, "base", 2000, 2,
                        _service("hub", "Hub", "HTTP"))]
    links, components, blocked_hosts = [], [], []
    best = 0.0
    for i in range(free):
        software = f"sw{i:02d}"
        comp, host_a, host_b = f"comp_{i:02d}", f"h{i:02d}a", f"h{i:02d}b"
        uses_broker = i % 2 == 1
        latency_a = round(rnd.uniform(1.0, 40.0), 2)
        latency_b = round(rnd.uniform(1.0, 40.0), 2)
        protocol = rnd.choice(("HTTP", "CoAP"))
        blocks.append(_platform("fog", host_a, 1.6, software, 900 + i, 20))
        links.append(_link(host_a, "core", latency_a))
        if i in blocked_set:
            blocked_hosts.append(host_b)
            if (len(blocked_hosts) % 2 == 1) == unreachable_first:  # no link at all
                blocks.append(_platform("fog", host_b, 1.6, software, 950 + i, 25))
            else:  # reachable, but CoAP against HTTP with no fog to translate
                protocol = "CoAP"
                blocks.append(_platform("cloud", host_b, 2.5, software, 1500 + i, 3))
                links.append(_link(host_b, "core", latency_b))
            reachable = (latency_a,)
        else:
            tier = "fog" if protocol == "CoAP" else rnd.choice(("fog", "cloud"))
            blocks.append(_platform(tier, host_b, 2.5, software, 950 + i, 25))
            links.append(_link(host_b, "core", latency_b))
            reachable = (latency_a, latency_b)
        processing = broker_cycles / (CORE_GHZ * 1e9) * 1000.0 if uses_broker else 0.0
        best += min(reachable) + processing
        components.append(
            f'component "{comp}" {{\n  cpu_demand_cycles = {100 * (i + 1)}\n'
            f'  requires_software = ["{software}"]\n'
            f'  requires = ["{"Broker" if uses_broker else "Hub"}"]\n'
            f'{_service(f"{comp}_out", "Telemetry", protocol)}}}\n')
    for index in range(TOTAL_PLATFORMS - 1 - 2 * free):
        blocks.append(_platform("fog", f"spare_{index:02d}", 1.6, f"idle{index}", 900, 20))
    components.insert(0, f'component "broker" {{\n  cpu_demand_cycles = {broker_cycles}\n'
                         f'  requires_software = ["base"]\n'
                         f'{_service("broker_out", "Broker", "HTTP")}}}\n')
    contracts = [
        f'contract "{contract}" {{\n  provider_interface = "{interface}"\n'
        f'  consumer_interface = "{interface}Client"\n  task "{task}" = compute\n}}\n'
        for contract, interface, task in (("UseHub", "Hub", "CallHub"),
                                          ("UseBroker", "Broker", "CallBroker"),
                                          ("Publish", "Telemetry", "PublishReading"))]
    names = ", ".join(f'"{c.split(chr(34))[1]}"' for c in components)
    application = f'application "app" {{\n  region = (45.0, 11.0)\n  components = [{names}]\n}}\n'
    text = "\n".join(blocks + links + contracts + components + [application])
    return ScaleModel(text=text, name=name, free=free, blocked_hosts=tuple(blocked_hosts),
                      candidates=2 ** free, feasible=2 ** (free - blocked),
                      best_response_ms=best)
