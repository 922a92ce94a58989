"""Golden parser diagnostics and canonical-model digests.

Each malformed input below must come back from ``parse_model`` as exactly
the rendered diagnostics recorded with it: the same messages, in the same
order, at the same positions.  The digests pin ``serialize_model`` of the
shipped models, the seed-42 ``deploy_scale`` benchmark model and the
generated placement models, so a change to the parser, the model
constructors or the serializer that alters a single byte shows up here.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from iotdraw import load_model, parse_model, serialize_model

from conftest import ALARMED_TEMPLATE, MODELS_DIR, random_placement_model, tiny_text

ROOT = Path(__file__).resolve().parents[1]


def tiny(*edits: tuple[str, str]) -> str:
    """tiny_text() with each (old, new) edit applied to the first occurrence of old."""
    text = tiny_text()
    for old, new in edits:
        assert old in text, old
        text = text.replace(old, new, 1)
    return text


def alarmed(**slots) -> str:
    values = dict(sim_time=10, interval=1, capacity=100, rng_seed=0,
                  data="trace [30, 5]", condition="level > 20")
    values.update(slots)
    return ALARMED_TEMPLATE.format(**values)


SYSTEM = 'system "m" {}\n'
FOG = 'fog "hub" {'
DEVICE = 'device "probe_1" {'
BATTERY = "  battery {"
SENSE = "  sense {"
TRANSMIT = "  transmit {"
SERVICE = 'service "ProbePort" {'
LINK = 'link "probe_1" <-> "hub" {'
CONTRACT = 'contract "RequestProbe" {'
MESSAGE = 'message "ProbeData" {'
COMPONENT = 'component "Watcher" {'
PERIODIC = 'periodic "ReadProbe" {'
APPLICATION = 'application "TinyApp" {'
ENTITY = 'entity "post_1" {'
WATCHER_TWO = """
component "Watcher2" {
  cpu_demand_cycles = 100
}
"""

CASES = [
    # unknown keys, one per block
    ("unknown-key-system", 'system "m" {\n  wibble = 3\n}'),
    ("unknown-key-execution-module",
     'system "m" {\n  execution_module {\n    module = "X"\n    wibble = "y"\n  }\n}'),
    ("unknown-key-entity", tiny((ENTITY, ENTITY + "\n  height = 3"))),
    ("unknown-key-interface", SYSTEM + 'interface "I" { x = 1 }'),
    ("unknown-key-cloud", SYSTEM + 'cloud "c" {\n  wibble = 1\n}'),
    ("unknown-key-fog", tiny((FOG, FOG + "\n  wibble = 1"))),
    ("device-key-on-fog-battery", tiny((FOG, FOG + "\n  battery {}"))),
    ("device-key-on-fog-attached-to", tiny((FOG, FOG + '\n  attached_to = "post_1"'))),
    ("device-key-on-cloud-data", SYSTEM + 'cloud "c" {\n  data = constant(1)\n}'),
    ("unknown-key-device", tiny((DEVICE, DEVICE + "\n  wibble = 1"))),
    ("unknown-key-battery", tiny((BATTERY, BATTERY + "\n    wibble = 1"))),
    ("unknown-key-sense", tiny((SENSE, SENSE + "\n    wibble = 1"))),
    ("unknown-key-transmit", tiny((TRANSMIT, TRANSMIT + "\n    wibble = 1"))),
    ("unknown-key-platform-service", tiny((SERVICE, SERVICE + "\n    wibble = 1"))),
    ("unknown-key-link", tiny((LINK, LINK + "\n  wibble = 1"))),
    ("unknown-key-contract", tiny((CONTRACT, CONTRACT + "\n  wibble = 1"))),
    ("unknown-key-message", tiny((MESSAGE, MESSAGE + '\n    task "x" = sense'))),
    ("unknown-key-component", tiny((COMPONENT, COMPONENT + "\n  wibble = 1"))),
    ("unknown-key-component-service",
     tiny((COMPONENT, COMPONENT + '\n  service "S" {\n    wibble = 1\n  }'))),
    ("unknown-key-periodic", tiny((PERIODIC, PERIODIC + "\n    wibble = 1"))),
    ("unknown-key-event", alarmed().replace('event "RingBell" {', 'event "RingBell" {\n wibble = 1')),
    ("unknown-key-application", tiny((APPLICATION, APPLICATION + "\n  wibble = 1"))),
    # duplicate keys, one per block
    ("duplicate-key-system", 'system "m" { simulation_time = 1 simulation_time = 2 }'),
    ("duplicate-key-execution-module",
     'system "m" {\n  execution_module {\n    module = "X"\n    module = "Y"\n  }\n}'),
    ("duplicate-key-entity", tiny((ENTITY, ENTITY + "\n  location = (0, 0)"))),
    ("duplicate-key-fog", tiny((FOG, FOG + "\n  cpu_ghz = 2"))),
    ("duplicate-key-device-attached-to", tiny((DEVICE, DEVICE + '\n  attached_to = "post_1"'))),
    ("duplicate-key-device-battery", tiny((DEVICE, DEVICE + "\n  battery {}"))),
    ("duplicate-key-device-data", tiny((DEVICE, DEVICE + "\n  data = constant(1)"))),
    ("duplicate-key-battery", tiny((BATTERY, BATTERY + "\n    capacity_mah = 7"))),
    ("duplicate-key-sense", tiny((SENSE, SENSE + "\n    current_ma = 7"))),
    ("duplicate-key-transmit", tiny((TRANSMIT, TRANSMIT + "\n    packet_kb = 7"))),
    ("duplicate-key-service", tiny((SERVICE, SERVICE + '\n    interface = "Probe"'))),
    ("duplicate-key-link", tiny((LINK, LINK + "\n  latency_ms = 3"))),
    ("duplicate-key-contract-interface",
     tiny((CONTRACT, CONTRACT + '\n  provider_interface = "Probe"'))),
    ("duplicate-key-contract-message", tiny((CONTRACT, CONTRACT + '\n  message "M" {}'))),
    ("duplicate-key-component", tiny((COMPONENT, COMPONENT + "\n  cpu_demand_cycles = 7"))),
    ("duplicate-key-component-periodic",
     tiny((COMPONENT, COMPONENT + '\n  periodic "ReadProbe" {\n    interval_ticks = 1\n  }'))),
    ("duplicate-key-periodic", tiny((PERIODIC, PERIODIC + "\n    interval_ticks = 3"))),
    ("duplicate-key-event",
     alarmed().replace('event "RingBell" {', 'event "RingBell" {\n condition = "level > 1"')),
    ("duplicate-key-application-region", tiny((APPLICATION, APPLICATION + "\n  region = (0, 0)"))),
    ("duplicate-key-application-components",
     tiny((APPLICATION, APPLICATION + '\n  components = ["Watcher"]'))),
    ("duplicate-system-block", tiny_text() + 'system "again" {}'),
    # integers
    ("non-integer-interval", tiny(("interval_ticks = 2", "interval_ticks = 2.5"))),
    ("non-integer-simulation-time", tiny(("simulation_time = 10", "simulation_time = 1e3"))),
    ("non-integer-loss-exponent", tiny(("loss_exponent = 2", "loss_exponent = 2.0"))),
    ("string-for-integer", tiny(("rng_seed = 0", 'rng_seed = "x"'))),
    ("non-integer-uniform-seed", tiny(("data = trace [5, 10, 20, 40]", "data = uniform(0, 1) seed 1.5"))),
    # numbers
    ("string-for-number", tiny(("cpu_ghz = 1.6", 'cpu_ghz = "fast"'))),
    ("word-for-number", tiny(("latency_ms = 2", "latency_ms = abc"))),
    ("missing-value", tiny(("tick_seconds = 60", "tick_seconds =\n}"))),
    ("missing-equals", tiny(("cpu_ghz = 1.6", "cpu_ghz 1.6"))),
    # points
    ("point-not-a-pair", tiny(("location = (1.0, 2.0)", "location = 1.0"))),
    ("point-one-number", tiny(("location = (1.0, 2.0)", "location = (1.0)"))),
    ("point-three-numbers", tiny(("location = (1.0, 2.0)", "location = (1.0, 2.0, 3.0)"))),
    ("point-string", tiny(("region = (1.0, 2.0)", 'region = ("a", 2)'))),
    # lists
    ("list-not-bracketed", tiny(('components = ["Watcher"]', 'components = "Watcher"'))),
    ("list-trailing-comma", tiny(('components = ["Watcher"]', 'components = ["Watcher",]'))),
    ("list-bare-word", tiny(('requires_software = ["jboss"]', "requires_software = [jboss]"))),
    ("list-missing-comma", tiny(('provides_software = ["jboss"]', 'provides_software = ["a" "b"]'))),
    ("trace-empty-item", tiny(("trace [5, 10, 20, 40]", "trace [1, , 2]"))),
    # sources
    ("source-unknown", tiny(("trace [5, 10, 20, 40]", "gaussian(0, 1)"))),
    ("source-constant-no-parens", tiny(("trace [5, 10, 20, 40]", "constant 5"))),
    ("source-uniform-one-bound", tiny(("trace [5, 10, 20, 40]", "uniform(0)"))),
    ("source-uniform-bounds-out-of-order", tiny(("trace [5, 10, 20, 40]", "uniform(5, 1)"))),
    ("source-trace-empty", tiny(("trace [5, 10, 20, 40]", "trace []"))),
    ("source-bare-number", tiny(("trace [5, 10, 20, 40]", "5"))),
    ("source-seed-word", tiny(("trace [5, 10, 20, 40]", "uniform(0, 1) seed x"))),
    # tasks and message fields
    ("task-kind-unknown", tiny(('task "ReadProbe" = sense', 'task "ReadProbe" = sniff'))),
    ("field-kind-unknown", tiny(('field "level" = number', 'field "level" = float'))),
    ("task-unnamed", tiny(('task "ReadProbe"', 'task ""'))),
    ("field-missing-equals", tiny(('field "level" = number', 'field "level" number'))),
    ("request-interval-zero", tiny(("interval_ticks = 2", "interval_ticks = 0"))),
    ("execution-module-unnamed", 'system "m" {\n  execution_module { }\n}'),
    ("service-without-protocol", tiny(('    protocol = "CoAP"\n  }\n}', "  }\n}"))),
    # lexing, block structure and unterminated blocks
    ("unterminated-system", 'system "m" { simulation_time = 1 '),
    ("unterminated-battery", 'system "m" {}\ndevice "d" {\n  battery {\n    capacity_mah = 3\n'),
    ("unterminated-application", tiny_text() + 'application "More" {\n  region = (0, 0)\n'),
    ("unterminated-service", SYSTEM + 'fog "f" {\n  service "s" {\n    interface = "I"\n'),
    ("unterminated-string", 'system "m\n" {}'),
    ("unexpected-character", tiny(("cpu_ghz = 1.6", "cpu_ghz = @1.6"))),
    ("unknown-block-keyword", tiny_text() + 'gadget "x" {}'),
    ("string-at-top-level", tiny_text() + '"x"'),
    ("missing-system-block", 'entity "e" { location = (1, 2) }'),
    ("empty-text", ""),
    ("link-missing-arrow", tiny(('link "probe_1" <-> "hub"', 'link "probe_1" "hub"'))),
    ("interface-with-body", SYSTEM + 'interface "I" { }\ninterface "J" {\n  "x"\n}'),
    # non-finite numbers
    ("infinite-latency", tiny(("latency_ms = 2", "latency_ms = 1e999"))),
    ("infinite-capacity", tiny(("capacity_mah = 100", "capacity_mah = -1e999"))),
    ("infinite-location", tiny(("location = (1.0, 2.0)", "location = (1e999, 0)"))),
    ("infinite-condition", alarmed(condition="level > 1e999")),
    # conditions
    ("condition-missing-number", alarmed(condition="level >")),
    ("condition-reversed", alarmed(condition="20 > level")),
    ("condition-unknown-operator", alarmed(condition="level ~ 3")),
    # duplicate identifiers
    ("duplicate-entity", tiny_text() + 'entity "post_1" {\n  location = (0, 0)\n}'),
    ("duplicate-interface", SYSTEM + 'interface "I" {}\ninterface "I" {}'),
    ("duplicate-platform", tiny_text() + 'cloud "hub" {}'),
    ("duplicate-contract",
     tiny_text() + 'contract "RequestProbe" {\n  provider_interface = "A"\n'
                   '  consumer_interface = "B"\n  task "Other" = compute\n}'),
    ("duplicate-component",
     tiny_text() + 'component "Watcher" {}\napplication "Other" {\n  components = ["Watcher"]\n}'),
    ("duplicate-application", tiny_text() + 'application "TinyApp" {\n  components = []\n}'),
    # dangling references
    ("dangling-entity", tiny(('attached_to = "post_1"', 'attached_to = "ghost"'))),
    ("dangling-component", tiny(('components = ["Watcher"]', 'components = ["Watcher", "Ghost"]'))),
    ("dangling-contract-interface", tiny_text() + 'interface "Probe" {}'),
    ("dangling-port-interface",
     tiny_text() + 'interface "ProbeClient" {}\ninterface "Other" {}'),
    ("dangling-required-interface",
     tiny(('requires = ["Probe"]', 'requires = ["Probe", "Spare"]'))
     + 'interface "Probe" {}\ninterface "ProbeClient" {}'),
    ("dangling-component-service-interface",
     tiny((COMPONENT, COMPONENT + '\n  service "S" {\n    interface = "Spare"\n'
                                  '    protocol = "HTTP"\n  }'))
     + 'interface "Probe" {}\ninterface "ProbeClient" {}'),
    ("dangling-link-endpoint", tiny_text() + 'link "hub" <-> "nowhere" {}'),
    ("dangling-link-both-endpoints", tiny_text() + 'link "here" <-> "there" {}'),
    # application membership
    ("component-in-two-applications",
     tiny_text() + 'application "Second" {\n  components = ["Watcher"]\n}'),
    ("component-in-no-application", tiny_text() + WATCHER_TWO),
    ("components-in-no-application-sorted",
     tiny_text() + WATCHER_TWO + WATCHER_TWO.replace("Watcher2", "Watcher0")),
    ("application-of-dangling-components", tiny(('components = ["Watcher"]', 'components = ["Ghost"]'))),
    # links
    ("duplicate-link-reversed", tiny_text() + 'link "hub" <-> "probe_1" {\n  latency_ms = 9\n}'),
    ("link-to-itself", tiny_text() + 'link "hub" <-> "hub" {}'),
    ("link-negative-latency", tiny(("latency_ms = 2", "latency_ms = -2"))),
    ("link-zero-distance", tiny(("distance_m = 10", "distance_m = 0"))),
    # constructor rejections
    ("entity-latitude-out-of-range", tiny(("location = (1.0, 2.0)", "location = (91, 2.0)"))),
    ("platform-longitude-out-of-range",
     tiny((FOG + "\n  location = (1.0, 2.0)", FOG + "\n  location = (1.0, -181)"))),
    ("application-region-out-of-range", tiny(("region = (1.0, 2.0)", "region = (-90.5, 0)"))),
    ("battery-capacity-zero", tiny(("capacity_mah = 100", "capacity_mah = 0"))),
    ("battery-threshold-above-capacity", tiny(("capacity_mah = 100", "capacity_mah = 4"))),
    ("battery-threshold-negative",
     tiny(("depletion_threshold_mah = 5", "depletion_threshold_mah = -1"))),
    ("battery-voltage-zero", tiny(("supply_voltage_v = 3", "supply_voltage_v = 0"))),
    ("sense-current-zero", tiny(("current_ma = 25", "current_ma = 0"))),
    ("sense-duration-zero", tiny(("duration_ms = 10", "duration_ms = 0"))),
    ("transmit-packet-zero", tiny(("packet_kb = 2", "packet_kb = 0"))),
    ("transmit-electronics-negative", tiny(("e_elec_nj_per_bit = 50", "e_elec_nj_per_bit = -1"))),
    ("transmit-amplifier-negative", tiny(("e_amp_pj_per_bit_m = 100", "e_amp_pj_per_bit_m = -1"))),
    ("transmit-loss-exponent-zero", tiny(("loss_exponent = 2", "loss_exponent = 0"))),
    ("platform-cpu-zero", tiny(("cpu_ghz = 1.6", "cpu_ghz = 0"))),
    ("platform-mtbf-zero", tiny(("mtbf_hours = 99", "mtbf_hours = 0"))),
    ("platform-mttr-negative", tiny(("mttr_hours = 1", "mttr_hours = -1"))),
    ("platform-unnamed", SYSTEM + 'fog "" {}'),
    ("energy-rejection-comes-before-location",
     tiny(("capacity_mah = 100", "capacity_mah = 0"),
          (DEVICE + "\n  location = (1.0, 2.0)", DEVICE + "\n  location = (100, 2.0)"))),
    ("entity-unnamed", SYSTEM + 'entity "" {}'),
    ("contract-no-provider-interface", tiny(('provider_interface = "Probe"', ""))),
    ("contract-no-consumer-interface", tiny(('consumer_interface = "ProbeClient"', ""))),
    ("contract-same-interfaces",
     tiny(('consumer_interface = "ProbeClient"', 'consumer_interface = "Probe"'))),
    ("contract-no-tasks", tiny(('task "ReadProbe" = sense', ""))),
    ("component-cpu-zero", tiny(("cpu_demand_cycles = 500", "cpu_demand_cycles = 0"))),
    ("component-unnamed",
     tiny(('components = ["Watcher"]', 'components = ["Watcher", ""]')) + 'component "" {}'),
    ("application-without-components", tiny(('components = ["Watcher"]', "components = []"))),
    ("system-tick-seconds-zero", tiny(("tick_seconds = 60", "tick_seconds = 0"))),
    ("system-negative-simulation-time", tiny(("simulation_time = 10", "simulation_time = -1"))),
    # several issues at once come back together, in build order
    ("issues-in-build-order",
     tiny(('attached_to = "post_1"', 'attached_to = "ghost"'),
          ("cpu_ghz = 1.6", "cpu_ghz = 0"),
          ("distance_m = 10", "distance_m = 0"),
          ("tick_seconds = 60", "tick_seconds = 0"),
          ('components = ["Watcher"]', 'components = ["Watcher", "Ghost"]'))
     + 'entity "post_1" {}\ninterface "Probe" {}\ninterface "ProbeClient" {}\n'
     + 'interface "Probe" {}\ncontract "C" {}\n' + WATCHER_TWO),
]

# Recorded from the parser before the declaration records were removed.
EXPECTED = {
    'unknown-key-system':
        "error: [syntax] unknown key 'wibble' in system block (<golden>:2:3)",
    'unknown-key-execution-module':
        "error: [syntax] unknown key 'wibble' in execution_module block (<golden>:4:5)",
    'unknown-key-entity':
        "error: [syntax] unknown key 'height' in entity block (<golden>:9:3)",
    'unknown-key-interface':
        "error: [syntax] expected '}', found 'x' (<golden>:2:17)",
    'unknown-key-cloud':
        "error: [syntax] unknown key 'wibble' in cloud block (<golden>:3:3)",
    'unknown-key-fog':
        "error: [syntax] unknown key 'wibble' in fog block (<golden>:13:3)",
    'device-key-on-fog-battery':
        "error: [syntax] unknown key 'battery' in fog block (<golden>:13:3)",
    'device-key-on-fog-attached-to':
        "error: [syntax] unknown key 'attached_to' in fog block (<golden>:13:3)",
    'device-key-on-cloud-data':
        "error: [syntax] unknown key 'data' in cloud block (<golden>:3:3)",
    'unknown-key-device':
        "error: [syntax] unknown key 'wibble' in device block (<golden>:21:3)",
    'unknown-key-battery':
        "error: [syntax] unknown key 'wibble' in battery block (<golden>:27:5)",
    'unknown-key-sense':
        "error: [syntax] unknown key 'wibble' in sense block (<golden>:32:5)",
    'unknown-key-transmit':
        "error: [syntax] unknown key 'wibble' in transmit block (<golden>:36:5)",
    'unknown-key-platform-service':
        "error: [syntax] unknown key 'wibble' in service block (<golden>:43:5)",
    'unknown-key-link':
        "error: [syntax] unknown key 'wibble' in link block (<golden>:49:3)",
    'unknown-key-contract':
        "error: [syntax] unknown key 'wibble' in contract block (<golden>:55:3)",
    'unknown-key-message':
        "error: [syntax] unknown key 'task' in message block (<golden>:59:5)",
    'unknown-key-component':
        "error: [syntax] unknown key 'wibble' in component block (<golden>:64:3)",
    'unknown-key-component-service':
        "error: [syntax] unknown key 'wibble' in service block (<golden>:65:5)",
    'unknown-key-periodic':
        "error: [syntax] unknown key 'wibble' in periodic block (<golden>:68:5)",
    'unknown-key-event':
        "error: [syntax] unknown key 'wibble' in event block (<golden>:114:2)",
    'unknown-key-application':
        "error: [syntax] unknown key 'wibble' in application block (<golden>:73:3)",
    'duplicate-key-system':
        "error: [syntax] duplicate key 'simulation_time' in system block (<golden>:1:34)",
    'duplicate-key-execution-module':
        "error: [syntax] duplicate key 'module' in execution_module block (<golden>:4:5)",
    'duplicate-key-entity':
        "error: [syntax] duplicate key 'location' in entity block (<golden>:10:3)",
    'duplicate-key-fog':
        "error: [syntax] duplicate key 'cpu_ghz' in fog block (<golden>:15:3)",
    'duplicate-key-device-attached-to':
        "error: [syntax] duplicate key 'attached_to' in device block (<golden>:24:3)",
    'duplicate-key-device-battery':
        "error: [syntax] duplicate key 'battery' in device block (<golden>:27:3)",
    'duplicate-key-device-data':
        "error: [syntax] duplicate key 'data' in device block (<golden>:42:3)",
    'duplicate-key-battery':
        "error: [syntax] duplicate key 'capacity_mah' in battery block (<golden>:28:5)",
    'duplicate-key-sense':
        "error: [syntax] duplicate key 'current_ma' in sense block (<golden>:33:5)",
    'duplicate-key-transmit':
        "error: [syntax] duplicate key 'packet_kb' in transmit block (<golden>:37:5)",
    'duplicate-key-service':
        "error: [syntax] duplicate key 'interface' in service block (<golden>:44:5)",
    'duplicate-key-link':
        "error: [syntax] duplicate key 'latency_ms' in link block (<golden>:51:3)",
    'duplicate-key-contract-interface':
        "error: [syntax] duplicate key 'provider_interface' in contract block (<golden>:56:3)",
    'duplicate-key-contract-message':
        "error: [syntax] duplicate key 'message' in contract block (<golden>:59:3)",
    'duplicate-key-component':
        "error: [syntax] duplicate key 'cpu_demand_cycles' in component block (<golden>:65:3)",
    'duplicate-key-component-periodic':
        "error: [syntax] duplicate key 'periodic' in component block (<golden>:70:3)",
    'duplicate-key-periodic':
        "error: [syntax] duplicate key 'interval_ticks' in periodic block (<golden>:69:5)",
    'duplicate-key-event':
        "error: [syntax] duplicate key 'condition' in event block (<golden>:115:5)",
    'duplicate-key-application-region':
        "error: [syntax] duplicate key 'region' in application block (<golden>:74:3)",
    'duplicate-key-application-components':
        "error: [syntax] duplicate key 'components' in application block (<golden>:75:3)",
    'duplicate-system-block':
        "error: [syntax] duplicate 'system' block (<golden>:76:1)",
    'non-integer-interval':
        "error: [syntax] interval_ticks must be an integer, found '2.5' (<golden>:68:22)",
    'non-integer-simulation-time':
        "error: [syntax] simulation_time must be an integer, found '1e3' (<golden>:3:21)",
    'non-integer-loss-exponent':
        "error: [syntax] loss_exponent must be an integer, found '2.0' (<golden>:39:21)",
    'string-for-integer':
        'error: [syntax] expected rng_seed, found \'"x"\' (<golden>:5:14)',
    'non-integer-uniform-seed':
        "error: [syntax] seed must be an integer, found '1.5' (<golden>:41:29)",
    'string-for-number':
        'error: [syntax] expected a number, found \'"fast"\' (<golden>:14:13)',
    'word-for-number':
        "error: [syntax] expected a number, found 'abc' (<golden>:50:16)",
    'missing-value':
        "error: [syntax] expected a number, found '}' (<golden>:5:1)",
    'missing-equals':
        "error: [syntax] expected '=', found '1.6' (<golden>:14:11)",
    'point-not-a-pair':
        "error: [syntax] expected '(', found '1.0' (<golden>:9:14)",
    'point-one-number':
        "error: [syntax] expected ',', found ')' (<golden>:9:18)",
    'point-three-numbers':
        "error: [syntax] expected ')', found ',' (<golden>:9:23)",
    'point-string':
        'error: [syntax] expected a number, found \'"a"\' (<golden>:73:13)',
    'list-not-bracketed':
        'error: [syntax] expected \'[\', found \'"Watcher"\' (<golden>:74:16)',
    'list-trailing-comma':
        "error: [syntax] expected a quoted name, found ']' (<golden>:74:27)",
    'list-bare-word':
        "error: [syntax] expected a quoted name, found 'jboss' (<golden>:65:24)",
    'list-missing-comma':
        'error: [syntax] expected \']\', found \'"b"\' (<golden>:15:28)',
    'trace-empty-item':
        "error: [syntax] expected a number, found ',' (<golden>:41:20)",
    'source-unknown':
        "error: [syntax] unknown data source 'gaussian' (<golden>:41:10)",
    'source-constant-no-parens':
        "error: [syntax] expected '(', found '5' (<golden>:41:19)",
    'source-uniform-one-bound':
        "error: [syntax] expected ',', found ')' (<golden>:41:19)",
    'source-uniform-bounds-out-of-order':
        'error: [syntax] uniform bounds out of order: [5.0, 1.0] (<golden>:41:10)',
    'source-trace-empty':
        'error: [syntax] trace source needs at least one value (<golden>:41:10)',
    'source-bare-number':
        "error: [syntax] expected a data source (constant, uniform, or trace), found '5' (<golden>:41:10)",
    'source-seed-word':
        "error: [syntax] expected seed, found 'x' (<golden>:41:29)",
    'task-kind-unknown':
        "error: [syntax] unknown task kind 'sniff' (<golden>:57:22)",
    'field-kind-unknown':
        "error: [syntax] unknown field kind 'float' (<golden>:59:21)",
    'task-unnamed':
        'error: [syntax] task needs a name (<golden>:57:8)',
    'field-missing-equals':
        "error: [syntax] expected '=', found 'number' (<golden>:59:19)",
    'request-interval-zero':
        'error: [syntax] request interval must be at least 1 tick (<golden>:63:11)',
    'execution-module-unnamed':
        'error: [syntax] execution module declaration needs a module name (<golden>:2:20)',
    'service-without-protocol':
        'error: [syntax] service port ProbePort needs a protocol (<golden>:42:11)',
    'unterminated-system':
        'error: [syntax] unterminated system block (<golden>:1:34)',
    'unterminated-battery':
        'error: [syntax] unterminated battery block (<golden>:5:1)',
    'unterminated-application':
        'error: [syntax] unterminated application block (<golden>:78:1)',
    'unterminated-service':
        'error: [syntax] unterminated service block (<golden>:5:1)',
    'unterminated-string':
        'error: [syntax] unexpected character \'"\' (<golden>:1:8)',
    'unexpected-character':
        "error: [syntax] unexpected character '@' (<golden>:14:13)",
    'unknown-block-keyword':
        "error: [syntax] unknown block keyword 'gadget' (<golden>:76:1)",
    'string-at-top-level':
        'error: [syntax] expected a block keyword, found \'"x"\' (<golden>:76:1)',
    'missing-system-block':
        "error: [syntax] expected a 'system' block (<golden>:1:1)",
    'empty-text':
        "error: [syntax] expected a 'system' block (<golden>:1:1)",
    'link-missing-arrow':
        'error: [syntax] expected \'<->\', found \'"hub"\' (<golden>:48:16)',
    'interface-with-body':
        'error: [syntax] expected \'}\', found \'"x"\' (<golden>:4:3)',
    'infinite-latency':
        "error: [syntax] number '1e999' is too large to represent (<golden>:50:16)",
    'infinite-capacity':
        "error: [syntax] number '-1e999' is too large to represent (<golden>:27:20)",
    'infinite-location':
        "error: [syntax] number '1e999' is too large to represent (<golden>:9:15)",
    'infinite-condition':
        "error: [syntax] condition threshold must be finite, got inf (<golden>:113:20)",
    'condition-missing-number':
        "error: [syntax] cannot parse condition 'level >'; expected 'field op number' (<golden>:113:20)",
    'condition-reversed':
        "error: [syntax] cannot parse condition '20 > level'; expected 'field op number' (<golden>:113:20)",
    'condition-unknown-operator':
        "error: [syntax] cannot parse condition 'level ~ 3'; expected 'field op number' (<golden>:113:20)",
    'duplicate-entity':
        "error: [build] duplicate identifier: entity 'post_1' (<golden>:76:8)",
    'duplicate-interface':
        "error: [build] duplicate identifier: interface 'I' (<golden>:3:11)",
    'duplicate-platform':
        "error: [build] duplicate identifier: platform 'hub' (<golden>:76:7)",
    'duplicate-contract':
        "error: [build] duplicate identifier: contract 'RequestProbe' (<golden>:76:10)",
    'duplicate-component':
        "error: [build] duplicate identifier: component 'Watcher' (<golden>:76:11)\nerror: [build] component 'Watcher' belongs to both 'TinyApp' and 'Other' (<golden>:77:13)",
    'duplicate-application':
        "error: [build] duplicate identifier: application 'TinyApp' (<golden>:76:13)\nerror: [build] application TinyApp needs at least one component (<golden>:76:13)",
    'dangling-entity':
        "error: [build] dangling reference: 'ghost' (entity of device probe_1) (<golden>:20:8)",
    'dangling-component':
        "error: [build] dangling reference: component 'Ghost' (in application TinyApp) (<golden>:72:13)",
    'dangling-contract-interface':
        "error: [build] dangling reference: interface 'ProbeClient' (used by contract RequestProbe) (<golden>:54:10)",
    'dangling-port-interface':
        "error: [build] dangling reference: interface 'Probe' (used by platform probe_1) (<golden>:20:8)\nerror: [build] dangling reference: interface 'Probe' (used by contract RequestProbe) (<golden>:54:10)\nerror: [build] dangling reference: interface 'Probe' (used by component Watcher) (<golden>:63:11)",
    'dangling-required-interface':
        "error: [build] dangling reference: interface 'Spare' (used by component Watcher) (<golden>:63:11)",
    'dangling-component-service-interface':
        "error: [build] dangling reference: interface 'Spare' (used by component Watcher) (<golden>:63:11)",
    'dangling-link-endpoint':
        "error: [build] dangling reference: platform 'nowhere' (link endpoint) (<golden>:76:6)",
    'dangling-link-both-endpoints':
        "error: [build] dangling reference: platform 'here' (link endpoint) (<golden>:76:6)\nerror: [build] dangling reference: platform 'there' (link endpoint) (<golden>:76:6)",
    'component-in-two-applications':
        "error: [build] component 'Watcher' belongs to both 'TinyApp' and 'Second' (<golden>:76:13)",
    'component-in-no-application':
        "error: [build] component 'Watcher2' belongs to no application (<golden>:77:11)",
    'components-in-no-application-sorted':
        "error: [build] component 'Watcher0' belongs to no application (<golden>:81:11)\nerror: [build] component 'Watcher2' belongs to no application (<golden>:77:11)",
    'application-of-dangling-components':
        "error: [build] dangling reference: component 'Ghost' (in application TinyApp) (<golden>:72:13)\nerror: [build] component 'Watcher' belongs to no application (<golden>:63:11)",
    'duplicate-link-reversed':
        "error: [build] duplicate link between 'hub' and 'probe_1' (<golden>:76:6)",
    'link-to-itself':
        'error: [build] hub<->hub: link endpoints must differ: hub (<golden>:76:6)',
    'link-negative-latency':
        'error: [build] hub<->probe_1: link latency must be non-negative (<golden>:48:6)',
    'link-zero-distance':
        'error: [build] hub<->probe_1: link distance must be positive (<golden>:48:6)',
    'entity-latitude-out-of-range':
        'error: [build] post_1: latitude out of range: 91.0 (<golden>:8:8)',
    'platform-longitude-out-of-range':
        'error: [build] hub: longitude out of range: -181.0 (<golden>:12:5)',
    'application-region-out-of-range':
        'error: [build] TinyApp: latitude out of range: -90.5 (<golden>:72:13)',
    'battery-capacity-zero':
        'error: [build] probe_1: battery capacity must be positive (<golden>:20:8)',
    'battery-threshold-above-capacity':
        'error: [build] probe_1: depletion threshold must be below the battery capacity (<golden>:20:8)',
    'battery-threshold-negative':
        'error: [build] probe_1: depletion threshold must be below the battery capacity (<golden>:20:8)',
    'battery-voltage-zero':
        'error: [build] probe_1: supply voltage must be positive (<golden>:20:8)',
    'sense-current-zero':
        'error: [build] probe_1: sense current must be positive (<golden>:20:8)',
    'sense-duration-zero':
        'error: [build] probe_1: sense duration must be positive (<golden>:20:8)',
    'transmit-packet-zero':
        'error: [build] probe_1: packet size must be positive (<golden>:20:8)',
    'transmit-electronics-negative':
        'error: [build] probe_1: electronics energy must be non-negative (<golden>:20:8)',
    'transmit-amplifier-negative':
        'error: [build] probe_1: amplifier energy must be non-negative (<golden>:20:8)',
    'transmit-loss-exponent-zero':
        'error: [build] probe_1: path-loss exponent must be at least 1 (<golden>:20:8)',
    'platform-cpu-zero':
        'error: [build] hub: CPU frequency must be positive (<golden>:12:5)',
    'platform-mtbf-zero':
        'error: [build] hub: MTBF must be positive (<golden>:12:5)',
    'platform-mttr-negative':
        'error: [build] hub: MTTR must be non-negative (<golden>:12:5)',
    'platform-unnamed':
        'error: [build] platform needs a name (<golden>:2:5)',
    'energy-rejection-comes-before-location':
        'error: [build] probe_1: battery capacity must be positive (<golden>:20:8)',
    'entity-unnamed':
        'error: [build] physical entity needs a name (<golden>:2:8)',
    'contract-no-provider-interface':
        'error: [build] contract RequestProbe needs a provider interface (<golden>:54:10)',
    'contract-no-consumer-interface':
        'error: [build] contract RequestProbe needs a consumer interface (<golden>:54:10)',
    'contract-same-interfaces':
        'error: [build] contract RequestProbe: conjugate interfaces must differ (<golden>:54:10)',
    'contract-no-tasks':
        'error: [build] contract RequestProbe needs at least one task (<golden>:54:10)',
    'component-cpu-zero':
        'error: [build] Watcher: CPU demand must be positive (<golden>:63:11)',
    'component-unnamed':
        'error: [build] component needs a name (<golden>:76:11)',
    'application-without-components':
        "error: [build] application TinyApp needs at least one component (<golden>:72:13)\nerror: [build] component 'Watcher' belongs to no application (<golden>:63:11)",
    'system-tick-seconds-zero':
        'error: [build] tiny: tick duration must be positive (<golden>:2:8)',
    'system-negative-simulation-time':
        'error: [build] tiny: simulation time must be non-negative (<golden>:2:8)',
    'issues-in-build-order':
        "error: [build] duplicate identifier: entity 'post_1' (<golden>:76:8)\nerror: [build] duplicate identifier: interface 'Probe' (<golden>:79:11)\nerror: [build] hub: CPU frequency must be positive (<golden>:12:5)\nerror: [build] dangling reference: 'ghost' (entity of device probe_1) (<golden>:20:8)\nerror: [build] contract C needs a provider interface (<golden>:80:10)\nerror: [build] dangling reference: component 'Ghost' (in application TinyApp) (<golden>:72:13)\nerror: [build] component 'Watcher2' belongs to no application (<golden>:82:11)\nerror: [build] hub<->probe_1: link distance must be positive (<golden>:48:6)\nerror: [build] tiny: tick duration must be positive (<golden>:2:8)",
}


def test_every_case_is_recorded():
    assert [name for name, _ in CASES] == list(EXPECTED)
    assert len(CASES) >= 90


@pytest.mark.parametrize("text, expected", [(text, EXPECTED.get(name)) for name, text in CASES],
                         ids=[name for name, _ in CASES])
def test_malformed_input_diagnostics(text, expected):
    result = parse_model(text, "<golden>")
    assert isinstance(result, list)
    assert "\n".join(d.render() for d in result) == expected


def _digest(model) -> str:
    return hashlib.sha256(serialize_model(model).encode("utf-8")).hexdigest()


def _deploy_scale_text() -> str:
    name = "perfbench_scale_model"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "scale_model.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module.generate(42, 14, 2).text


MODEL_DIGESTS = {
    'padova_fw.iot': '8a7bef5c12da8c68836c20ce58a0863691ec0d4c54aa7c1a2e229d512b5db977',
    'freshness_demo.iot': '2ccb12a6aad23d7a3c1c0c2479121483083eed264b1436ecf27eaea50d6a307f',
    'deploy_scale-seed42': '54c6dd0014124000e2f97def6f892a0eb2ac91ae681ea87e2af054c0f9bc32d5',
}

PLACEMENT_DIGESTS = [
    '0dbcc827ce1668a4e00f9c0d691111224b3d88b3fb2a9ebb02a3a49cb1e33f41',  # seed 0
    '94e981ec2d90a05ecaf19e5da7ebec6c50a17b544405f0ceb4a0cc377256f09d',  # seed 1
    'cb305ddb75a0cf87a0703a7bf57a5b0ed17e4ca3523d2b1deab90af3c7d55df6',  # seed 2
    '576008e6bffb6ad49e5316af1576a8b0ad66aa7c931129a02b931800f9cb27df',  # seed 3
    'b843a63d94095b0fcaf8490db6daa1302b7dd2bd6e1a26df24e999da8d85befb',  # seed 4
    'd1bd4654658b62e998452ce4f5c560ee708a04700a5cfefd2c2e6b14f192ce2b',  # seed 5
    'ff21291fc43e8f661c3380db7bcab16c8e03b6c3cbee2415e514810689139d04',  # seed 6
    'd62c5556d58e539ab3206802d5e13a4b009533b80c9770e03eba58802e018be2',  # seed 7
    '183c97df54a002edc0e87f4361d1a8f6093e435faaeabb32d8f42f62c039968b',  # seed 8
    'a61bae0a11ae2266bff9811fe55b69ed30f45c059149fae2af85c5a4f76dd1ca',  # seed 9
    '36732f0f5ec7c0d1696aedd1d772e087a3d6c3c0c2cfdc55a4cf0d4069387d56',  # seed 10
    '902aa599219e0e83b75fac6deb332dffac0f304445cb30e6f40e84d758745485',  # seed 11
    '41e067d8f17a84d0c82c35f7d07675c089b5fe69fa696d1f43c4b899a8521183',  # seed 12
    '54134e713705cd99226bb323defb1851c47b543758764badeb4da36c88ed40c4',  # seed 13
    '06efbbc823cf3527c34cc7ab923c0cb6d0fe6eb6e00a40d6178480f2018e710c',  # seed 14
    '1c55779ce1aa9c2b98d88f4ab2cbef81201b09a189d03d8256947edf29c86f52',  # seed 15
    '0d47765b80be3528197141b190a2ab8d5d88d2d6067553dd84ac572264e9eb25',  # seed 16
    '3369e7d50e27a9a1adfb8a7793cdc7c0b7eaf85e2386889ac3d9f8b24efffe74',  # seed 17
    'cbbecf36856c81884af60b07985da8d6d1925e3c4413c470f2c4093a39509072',  # seed 18
    '889f71b7e5b7884028c51d9d0ffc4b50c2914271b6be0111cd1232177c79e424',  # seed 19
    '7ccaadda130df633bc6de2ad87268edb857c3dd1d3670b90a56b6f9fd6203d92',  # seed 20
    '95e6740cd74e3aad9f15c66dfe3491bb5eae2f77c275161e4bcae0e4b7c21173',  # seed 21
    '9ef5ae56fda91aaf44b0cd55b84045163a108a634bc15ed1d8c808f4d797d196',  # seed 22
    '3cdbbb6adfd75885b5269c45f184030af378183d6ac18ba0c96d3989c3834db8',  # seed 23
    '2d4b80c3733ad0a2412185e5a44f5dbf4e080c3a5153648b3363ceeeb5dffdde',  # seed 24
    '890981afccb2eb10067f2e55824b159010dd72db205e4a64de3aca6ed58b62f2',  # seed 25
    '2f8996a1346c60e7d7a5740ebdc4f755d2a6955fbd88d316e76050bd4b1a2658',  # seed 26
    '1300ec87368c88dd2b4a529491ae660daf7bfe90ca98384e896d602405c48c70',  # seed 27
    '95d5cc7263f1e232f0166dc3e8f2d354104b94c6573e24b919046f034f151d8b',  # seed 28
    'efdbd4a18b740093d11dc43d31fdbc44d0fe27f4e76242848763a095cf5c98b4',  # seed 29
    '3f86cc1f4200ab077496e9178cde4f8e0b521d9dc33f1b14eddb8aef68c9fe8c',  # seed 30
    '5218b61383fce990f9634aa2be4417175103a1340796cd35234c2f5276c38b6d',  # seed 31
    '399295a78cb540dcfed46321aab908807c61a27d7a4487208c2baf9761f3e102',  # seed 32
    '3cd3058af731cea9662439e7b09ecfa6b4c7ed84e81c3f597d2d9ff6d58b1617',  # seed 33
    '0172559de24ea71d01dc77de11539d452e2313120d9ab9120d7e71e7b599f047',  # seed 34
    '0805e97e65e33ca31e7b062d329b1f7c939ec6e132cf3abaa2c32f2f9975c86d',  # seed 35
    '7981af06f65f09609101f9a887f1f6ae34bd0eb96e09ed9f9bcc4e22c1a01f75',  # seed 36
    '517d40ae8452b51abdb34108f07d382764ee9879b8a896c36049cd0bbc3686be',  # seed 37
    'adb0afaa4f1248e97277e784be7e79ecfa3d5169add6595a45ac52fb7da745e8',  # seed 38
    '73ee58d8025e795b1b84751a05c364600fdcfd257b68b16b2f19f820926a371a',  # seed 39
    '69b1432d42426da7d62a7365bf41bad641683cf63c85efc75981ee132a14cff4',  # seed 40
    'eb6355e531606bccfe9e0e3fa7dafe51c1ea69f459c8825dc882d5f5de8cbc50',  # seed 41
    'a629761d15242fe7452d19217a235637d910c4490f98df0084bbf7a57183c942',  # seed 42
    'e4152a25bb183907fca81988f060933eb3ae882ffeb8fd0dd3eb905740c7581d',  # seed 43
    'ee8471151ee9ec74522524402dce9943cdf829fc9c10a9ba8a509a599a96a6b0',  # seed 44
    '00b7fce435de9b1175c114b199d0789b200e748a6cd56d75fb217f9b99c62450',  # seed 45
    '1f2aa6b0226e7efee2557a9d7952aeba0209204d69963be9d6b6126eb71ab8a1',  # seed 46
    'ffe78fc12b124aef5a3616aac58838d3c3018524074b44d1e63cd1cd87ff6520',  # seed 47
    '7c4378cd18c947c455cfa21b7462d45750ce58ecaa931b4f7dbd920e6e28ffb6',  # seed 48
    '2d2c24791afae02b6bcc0e0ff04c185de24402fbe773dbb9f90973be851cbcb1',  # seed 49
    '43830bf5f3b4a74d0786e6d5e324cc4afebd58a016f70703ada163ba612b2444',  # seed 50
    'b5c115bf12f86e7c6616e0315758de426597aa8cfada5f0b2b79127d5b852757',  # seed 51
    '5f6b6cb47a45a404a6af0f86afc845187a56501a46b3b447ceacfb7ce15c6162',  # seed 52
    '85a26766913f8fb310e123fdc97c51f5f3c443f21fb9ccd81cbf60cf6280ffc9',  # seed 53
    '19e6898b1e9de2a20bb43dfbc846f222e2bc7b96498269c4909351e15ea1789c',  # seed 54
    '8fa01ca6d6c29935cbe2984d3d78ec3547a877f14b0457677584d76b5881ace1',  # seed 55
    '420fd947a1b488f01711fb76a36b55231a0cadf4c38b6e85aa101cba1389ee8c',  # seed 56
    '813bf1e9c56e69848f348772539f1e5e0a862437db2268de4d086ef8e235ba84',  # seed 57
    '3e5ef1386c1d355268e94d4d396b77ae2ab220669107f1ce954ef8266490fc49',  # seed 58
    'f1dc642d6ecc388ccacec73295b70e8b3f29617bfa8377223a091206ac402a2d',  # seed 59
    '7af966fb83a6a60767691c657349ca15f8b7d5afa7191f41a8f39c8f2ced42a0',  # seed 60
    'af47cf6cc11eed025fb00bac3642a1b223220c4dc316e9f1c9da2b99fae782fc',  # seed 61
    'f5e4994686c74d4dd005b34fa70988dc0cbac89f5277391b5734b5a77aed3763',  # seed 62
    '09ab79b34233443805e4864bb817a6a185e65c2ffea3d1f634acb7bcef006d6e',  # seed 63
    '4c1f89fc384bb72eadf883fcad39f1cceba84330a71ea13abe2431e0c5786af3',  # seed 64
    '020abb89327038438be5155163713bffe0609db6d7e65cb5560a3be79183a5ac',  # seed 65
    'e6998e97cb4b247e393995925bf306aebaca8ed10fb788504613814c6824e1ef',  # seed 66
    '61bfdf9a040440e0281edee7959f0aeabc095f5be45c62e0ab0a0acd7d0ddd05',  # seed 67
    'c53054182a4602e550e412d910ab199e8c8aee73ec375328035e28e3fe3a842a',  # seed 68
    '2749acf91a863504fd8877595fec8cca1f81efb509653bf438dd060a524c21d3',  # seed 69
    '41ecbe38af31643183920da04e920353ca1341376d3dc66013b45d83b3a21514',  # seed 70
    '9c8955afac58ce79c1ab9b8c6586d702c1e078128595c60bed4353b2a482c2ed',  # seed 71
    '4d98e3381211e24d0a811a6a1ebd6748a5993d241177c18b08ab76c177baa954',  # seed 72
    '03e1bce1693dc1ae9338944f6fea91d6065776e03779f407d48b33dcff4d8be0',  # seed 73
    '4999d366b4be1f06117927afbe4b5cee735e4c815931f9c4c95ce833ca7c9e77',  # seed 74
    '6735308422914ebb92e42f6da1ef32a0bdbc806ab02ef08f115f28282275e6ab',  # seed 75
    'e14f7ea68158211fc28454f502a6c7b9cf80c15d38bd6cad62c661da48e6fece',  # seed 76
    'ba9c132cfd89567b9e2bf7015591db2ec052aa4bb8011a3ee5d67a71585f03aa',  # seed 77
    '82c0d0f60e8ac9d08311e1e2328d084e9f4b2df29c019b347cbe6d5e02ba5975',  # seed 78
    'f50376196359806d74f53aa5efd95c2fbd666c4f0bc259a618d90bdd3efd5dd2',  # seed 79
    'cb3f2161449d04a58c4e65ed02449ae35ec2d674e82fe9bf9a4226d1da45f5dd',  # seed 80
    'afe8ac3d09c00a6d2b54128d5cd88e67a71f6ddad8ad8caf5231345872ece4cf',  # seed 81
    '72d53b98a2e2c0211c44298ddb9b06f799ea5ca2e6afc1a41a07f23f7f2cb7a0',  # seed 82
    '7faf1ad309339466b04779176752b7c1c93964c944e107bce7c86446756ba587',  # seed 83
    '3899e10fbc866c7461cfb72ae7e3ca6b12bd59fa3cd388c7a05642c1333585e8',  # seed 84
    '8dfe41156a1dc7f88fc19e5e929d18196f8d5a052ad5fde4143748fc0eb87f4c',  # seed 85
    '9696cb4db7cfe8f6ea7f4f234dab8411e9bfdfcbfcd6973b39230a59c541213b',  # seed 86
    'cfef71dee74b876dc9ab8e8c0e4e3633850b87c329eadfc7a3498194b7e4910c',  # seed 87
    '240bebc08d6c9b7f2226aab3c2ec26e337c60baaaeee5d4d4a82bbae8f76b690',  # seed 88
    '2cbd2ab88147c147e021febbfa76e2afd0aed76a96465d78c0711629c8a81f74',  # seed 89
    '6a42c2a1cb4586b4da5f94af94265391cee7cf4aba318056222fa284d563e479',  # seed 90
    'f86d6664d06f57143689796ae14332b58123e4317ed275a5502ddf168e132c51',  # seed 91
    '83b384a4d737e22708f20710b01aeb04716d6b25a873a90c24fc0fabc0172473',  # seed 92
    '1e64d288a15dd302f68e0749c8ac1eb15f3e6b4e70f683e976a140b273cfec9e',  # seed 93
    '69c289ee600099ac82f72824a9be45aa608b54be85bacb9855840cf4be9f1e4d',  # seed 94
    'd21ff4542d90e643e880072e4ae1896c38ef01a33b0d2336ac8a5ac3a57ee3f4',  # seed 95
    '8379bf77e1cf2288af19d63c7d56a1d18d4cc7d3836cac40b57f9ad11d61e1b7',  # seed 96
    'cf6dba4f9621b46d22147d2e5656973a08f7bbbd48ffdef2785e9562e192ddd5',  # seed 97
    '0fac91b7521d58ed088397a411f9ea62df95b753d70e756818a9f4ea713c7171',  # seed 98
    '0e1dc15d6e6c961da337d2ef50cff7ba0e657b55b1e1e52b68f93bc1c57e8c3a',  # seed 99
]


def test_shipped_and_benchmark_model_digests():
    models = {name: load_model(MODELS_DIR / name) for name in ("padova_fw.iot", "freshness_demo.iot")}
    models["deploy_scale-seed42"] = parse_model(_deploy_scale_text(), "<deploy_scale>")
    assert {name: _digest(model) for name, model in models.items()} == MODEL_DIGESTS


def test_random_placement_model_digests():
    assert [_digest(random_placement_model(seed)) for seed in range(100)] == PLACEMENT_DIGESTS
