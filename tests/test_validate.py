"""Design-rule validation: bindings, conjugates, protocols, reachability."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from iotdraw import parse_model, run_simulation, validate_model
from iotdraw.model import ModelError
from iotdraw.validate import (
    check_protocol_bridge, dependency_edges, eligible_hosts, interface_providers,
    task_binding,
)

from conftest import (
    ALARMED_TEMPLATE, UNBOUND_TASK_ERRORS, alarmed_model, random_placement_model,
    reference_unroutable, tiny_text, unbound_task_text,
)


def model_of(text):
    model = parse_model(text, "<test>")
    assert not isinstance(model, list), [d.render() for d in model]
    return model


def codes_of(text):
    report = validate_model(model_of(text))
    return [d.code for d in report.diagnostics]


def test_bundled_models_validate_clean(padova_model, freshness_model):
    for model in (padova_model, freshness_model):
        report = validate_model(model)
        assert report.ok, report.to_text()
        assert report.diagnostics == ()


def test_ambiguous_contract():
    text = tiny_text() + """
contract "SecondOpinion" {
  provider_interface = "Probe"
  consumer_interface = "ProbeClient2"
  task "ReadTwice" = sense
}
"""
    assert "ambiguous-contract" in codes_of(text)


def test_undeclared_interface_on_port():
    text = tiny_text().replace(
        'interface = "Probe"\n    protocol = "CoAP"',
        'interface = "Mystery"\n    protocol = "CoAP"')
    assert "undeclared-interface" in codes_of(text)


def test_undeclared_interface_on_a_component_port():
    text = tiny_text().replace('component "Watcher" {', """component "Watcher" {
  service "WatchPort" {
    interface = "Mystery"
    protocol = "CoAP"
  }""")
    report = validate_model(model_of(text))
    assert [(d.code, d.message) for d in report.diagnostics] == [(
        "undeclared-interface",
        "service 'WatchPort' on component 'Watcher' uses interface 'Mystery', "
        "which no contract declares")]


def test_conjugate_mismatch():
    text = tiny_text().replace('requires = ["Probe"]', 'requires = ["ProbeClient"]')
    assert "conjugate-mismatch" in codes_of(text)


def test_missing_contract_for_requirement():
    text = tiny_text().replace('requires = ["Probe"]', 'requires = ["Probe", "Nowhere"]')
    assert "missing-contract" in codes_of(text)


def test_no_provider_when_no_port_realizes_interface():
    text = tiny_text().replace("""  service "ProbePort" {
    interface = "Probe"
    protocol = "CoAP"
  }
""", "")
    assert "no-provider" in codes_of(text)


def test_unknown_task():
    text = tiny_text().replace('periodic "ReadProbe"', 'periodic "Bogus"')
    assert "unknown-task" in codes_of(text)


def test_ambiguous_task():
    text = tiny_text() + """
contract "Doppel" {
  provider_interface = "Probe"
  consumer_interface = "DoppelClient"
  task "ReadProbe" = sense
}
"""
    assert "ambiguous-task" in codes_of(text)


def test_unknown_condition_field():
    model = alarmed_model(condition="bogus > 20")
    report = validate_model(model)
    assert "unknown-condition-field" in [d.code for d in report.diagnostics]
    assert not report.ok


def test_event_without_periodic_is_a_warning():
    text = ALARMED_TEMPLATE.format(
        sim_time=10, interval=1, capacity=100, rng_seed=0,
        data="constant(1)", condition="level > 20",
    ).replace("""  periodic "ReadProbe" {
    interval_ticks = 1
  }
""", "")
    report = validate_model(model_of(text))
    assert [d.code for d in report.diagnostics] == ["event-never-triggers"]
    assert report.ok  # warnings do not fail validation


def test_no_eligible_host_is_a_warning():
    text = tiny_text().replace('requires_software = ["jboss"]',
                               'requires_software = ["haskell"]')
    report = validate_model(model_of(text))
    assert "no-eligible-host" in [d.code for d in report.diagnostics]
    assert report.ok


def test_protocol_unroutable_without_fog():
    # HTTP consumer port, CoAP device port, and only a cloud in between
    text = tiny_text().replace('fog "hub"', 'cloud "hub"').replace(
        'component "Watcher" {', """component "Watcher" {
  service "WatcherPort" {
    interface = "WatcherApi"
    protocol = "HTTP"
  }""") + """
contract "UseWatcher" {
  provider_interface = "WatcherApi"
  consumer_interface = "WatcherApiClient"
  task "CallWatcher" = compute
}
"""
    assert "protocol-unroutable" in codes_of(text)
    # the same wiring through a fog is fine: the fog translates
    assert "protocol-unroutable" not in codes_of(text.replace('cloud "hub"', 'fog "hub"'))


UNROUTABLE = re.compile(r"component '(.+)' cannot reach provider '(.+)' of interface '(.+)' from")


def unroutable_of(model):
    return {UNROUTABLE.match(d.message).groups()
            for d in validate_model(model).diagnostics if d.code == "protocol-unroutable"}


def test_protocol_unroutable_matches_reference_on_random_models():
    flagged = 0
    for seed in range(60):
        model = random_placement_model(seed)
        truth = reference_unroutable(model)
        assert unroutable_of(model) == truth, f"seed {seed}"
        flagged += bool(truth)
    assert flagged >= 3  # the generator must exercise the unroutable side


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=60, max_value=2**32))
def test_protocol_unroutable_matches_reference_beyond_fixed_seeds(seed):
    model = random_placement_model(seed)
    assert unroutable_of(model) == reference_unroutable(model)


def test_validation_is_idempotent(padova_model):
    first = validate_model(padova_model)
    second = validate_model(padova_model)
    assert first == second


def test_report_text_and_csv():
    text = tiny_text().replace('periodic "ReadProbe"', 'periodic "Bogus"')
    report = validate_model(model_of(text), path="m.iot")
    rendered = report.to_text()
    assert "unknown-task" in rendered
    assert "error" in rendered.splitlines()[-1]
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "severity,code,message,file,line"
    assert any("unknown-task" in line for line in csv_text.splitlines()[1:])


def test_clean_report_text(freshness_model):
    report = validate_model(freshness_model)
    assert report.to_text().endswith("ok")


# binding helpers ------------------------------------------------------------


def test_task_binding_on_fixture(padova_model):
    binding = task_binding(padova_model, "MonitorWater")
    assert binding.contract.name == "RequestWaterSensor"
    assert binding.provider.kind == "platform"
    assert binding.provider.name == "water_sensor_1"
    assert binding.task.name == "MonitorWater"


def test_task_binding_unknown_task(padova_model):
    with pytest.raises(ModelError):
        task_binding(padova_model, "Nonsense")


@pytest.mark.parametrize("case", sorted(UNBOUND_TASK_ERRORS))
def test_task_binding_refuses_a_task_without_one_binding(case):
    model = model_of(unbound_task_text(case))
    message = f"^{re.escape(UNBOUND_TASK_ERRORS[case])}$"
    with pytest.raises(ModelError, match=message):
        task_binding(model, "MonitorLevel")
    with pytest.raises(ModelError, match=message):
        run_simulation(model)


def test_binding_prefers_lexicographically_first_provider():
    text = tiny_text().replace('device "probe_1"', 'device "aa_probe"').replace(
        'link "probe_1"', 'link "aa_probe"')
    text += """
entity "post_2" {
  location = (1.0, 2.0)
}

device "zz_probe" {
  location = (1.0, 2.0)
  cpu_ghz = 0.1
  attached_to = "post_2"
  mtbf_hours = 800
  mttr_hours = 100
  data = constant(0)
  service "ProbePort" {
    interface = "Probe"
    protocol = "CoAP"
  }
}

link "zz_probe" <-> "hub" {
  protocol = "CoAP"
  latency_ms = 3
  distance_m = 10
}
"""
    model = model_of(text)
    providers = interface_providers(model, "Probe")
    assert [p.name for p in providers] == ["aa_probe", "zz_probe"]
    assert task_binding(model, "ReadProbe").provider.name == "aa_probe"


def test_dependency_edges_on_fixture(padova_model):
    edges = dependency_edges(padova_model)
    as_pairs = sorted((e.consumer, e.interface, e.provider) for e in edges)
    assert as_pairs == [
        ("Analytics", "WaterSensor", "water_sensor_1"),
        ("FloodAPI", "Alarm", "alarm_1"),
        ("FloodAPI", "WaterSensor", "water_sensor_1"),
        ("FloodMonitor", "WaterSensor", "water_sensor_1"),
    ]
    assert all(e.provider_kind == "platform" for e in edges)
    assert all(e.consumer_port is None for e in edges)


def test_eligible_hosts_on_fixture(padova_model):
    def hosts(name):
        return [p.name for p in
                eligible_hosts(padova_model, padova_model.component(name))]
    assert hosts("FloodAPI") == ["Michigan", "Stuttgart", "fog_1", "fog_2", "fog_3"]
    assert hosts("FloodMonitor") == ["Michigan", "fog_1", "fog_2"]
    assert hosts("Analytics") == ["Michigan", "Stuttgart"]


def test_protocol_bridge_rules(padova_model):
    port_coap = padova_model.platform("water_sensor_1").services[0]
    port_alarm = padova_model.platform("alarm_1").services[0]
    # same protocol, no fog needed
    assert check_protocol_bridge(padova_model, port_coap, port_alarm,
                                 ("water_sensor_1", "alarm_1"))
    # different protocols need a fog somewhere on the path
    http_port = port_coap.__class__("X", "WaterSensor", "HTTP")
    assert not check_protocol_bridge(padova_model, http_port, port_alarm,
                                     ("Michigan", "alarm_1"))
    assert check_protocol_bridge(padova_model, http_port, port_alarm,
                                 ("Michigan", "fog_1", "alarm_1"))
    # case-insensitive protocol comparison
    coap_lower = port_coap.__class__("Y", "WaterSensor", "coap")
    assert check_protocol_bridge(padova_model, coap_lower, port_alarm,
                                 ("Michigan", "alarm_1"))
