"""Per-firing cost of runs with several periodic plans, as a Markdown table; it gates nothing.

Usage: python3 .github/scripts/many_plans.py [TICKS]

Every benchmark workload has one periodic plan, so none shows what the
scheduler costs when plans are due on neighbouring ticks.  The models are
built here: each sensor has its own 5,000 mAh device (it never depletes),
its own CoAP link to one fog hub, and its own contract and component, and
no component watches a reading.  The last two cases poll one sensor from
two components.  Each case runs TICKS ticks (50,000 by default) counts-only
and streamed to the null device through ``csv_event_sink``; a figure is
the best of 3 runs by ``perf_counter``, in µs per periodic request fired.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from iotdraw import FreshnessPolicy, parse_model, run_simulation  # noqa: E402
from iotdraw.engine import csv_event_sink  # noqa: E402

HUB = """fog "fog_hub" {
  location = (44.5, 11.3)
  cpu_ghz = 1.6
  provides_software = ["jboss"]
  mtbf_hours = 980
  mttr_hours = 20
}
"""

SENSOR = """entity "tank_{n}" {{
  location = (44.5, 11.3)
}}

interface "Level{n}" {{}}
interface "Level{n}Client" {{}}

device "sensor_{n}" {{
  location = (44.5, 11.3)
  cpu_ghz = 0.1
  attached_to = "tank_{n}"
  mtbf_hours = 800
  mttr_hours = 100
  battery {{
    capacity_mah = 5000
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
  data = uniform(0, 30) seed {n}
  service "Port{n}" {{
    interface = "Level{n}"
    protocol = "CoAP"
  }}
}}

link "sensor_{n}" <-> "fog_hub" {{
  protocol = "CoAP"
  latency_ms = 2
  distance_m = 10
}}

contract "Read{n}" {{
  provider_interface = "Level{n}"
  consumer_interface = "Level{n}Client"
  task "Sense{n}" = sense
  message "Reading{n}" {{
    field "level_cm" = number
  }}
}}
"""

CONSUMER = """component "{name}" {{
  cpu_demand_cycles = 500
  requires_software = ["jboss"]
  requires = ["Level{n}"]
  periodic "Sense{n}" {{
    interval_ticks = {interval}
  }}
}}
"""


def model(ticks: int, consumers: list[tuple[int, int]]):
    """A model of one fog hub and, per ``(sensor, interval)``, a component that
    polls that sensor every ``interval`` ticks; each sensor is declared once."""
    sensors = sorted({n for n, _ in consumers})
    names = [f"Monitor{at}" for at in range(len(consumers))]
    listed = ", ".join(f'"{name}"' for name in names)
    text = (f'system "many_plans" {{\n  simulation_time = {ticks}\n  tick_seconds = 60\n'
            f'  rng_seed = 3\n}}\n\n{HUB}\n'
            + "\n".join(SENSOR.format(n=n) for n in sensors) + "\n"
            + "\n".join(CONSUMER.format(name=name, n=n, interval=interval)
                        for name, (n, interval) in zip(names, consumers))
            + f'\napplication "Watch" {{\n  region = (44.5, 11.3)\n  components = [{listed}]\n}}\n')
    built = parse_model(text, "<many_plans>")
    if isinstance(built, list):
        sys.exit("\n".join(d.render() for d in built))
    return built


def per_firing_us(built, max_age: int, streamed: bool) -> float:
    """The best of 3 runs' time per periodic request fired, in µs."""
    best = float("inf")
    for _ in range(3):
        with open(os.devnull, "w", encoding="utf-8", newline="") as null:
            sink = csv_event_sink(null) if streamed else None
            start = time.perf_counter()
            report = run_simulation(built, FreshnessPolicy(max_age), sink=sink)
            best = min(best, time.perf_counter() - start)
    return best / report.counts["PeriodicRequest"] * 1e6


def main() -> None:
    ticks = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    cases = [("one sensor at 1", [(1, 1)], 0),
             ("two sensors at 1", [(1, 1), (2, 1)], 0),
             ("eight sensors at 1,1,2,2,3,3,5,5",
              [(n, interval) for n, interval in enumerate((1, 1, 2, 2, 3, 3, 5, 5), 1)], 0),
             ("two consumers of one sensor at 1 and 3, max age 0", [(1, 1), (1, 3)], 0),
             ("two consumers of one sensor at 1 and 3, max age 2", [(1, 1), (1, 3)], 2)]
    print(f"Many-plan runs of {ticks} ticks, best of 3, µs per periodic request fired "
          f"(Python {sys.version.split()[0]}):\n")
    print("| case | counts-only | streamed |")
    print("| --- | ---: | ---: |")
    for label, consumers, max_age in cases:
        built = model(ticks, consumers)
        quiet, streamed = (per_firing_us(built, max_age, s) for s in (False, True))
        print(f"| {label} | {quiet:.3g} | {streamed:.3g} |")


if __name__ == "__main__":
    main()
