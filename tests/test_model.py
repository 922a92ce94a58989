"""Domain model construction, cross-reference checks, and routing."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from iotdraw.model import (
    Application, Component, ConditionExpr, ConstantSource, GeoLocation, IoTSystemModel, ModelError,
    NetworkLink, PeriodicRequest, Platform, PlatformTier, Route, ServicePort, SimConfig, TraceSource,
    UniformSource, single_source_routes,
)
from iotdraw.engine import FreshnessPolicy, run_simulation
from iotdraw.modelfmt import parse_model, serialize_model
from iotdraw.validate import route_between

BASE_BLOCKS = (
    'system "t" {}',
    'entity "post" { location = (1, 2) }',
    'cloud "cloudy" { provides_software = ["jboss"] }',
    'device "sensor" {\n  attached_to = "post"\n'
    '  service "P" { interface = "Probe" protocol = "CoAP" }\n}',
    'link "sensor" <-> "cloudy" { latency_ms = 1 distance_m = 5 }',
    'contract "UseProbe" {\n  provider_interface = "Probe" consumer_interface = "ProbeClient"\n'
    '  task "Read" = sense\n}',
    'component "Watcher" { requires_software = ["jboss"] requires = ["Probe"] }',
    'application "App" { region = (0, 0) components = ["Watcher"] }',
)
BASE = "\n".join(BASE_BLOCKS) + "\n"


def built(text):
    model = parse_model(text, "<test>")
    assert not isinstance(model, list), [d.render() for d in model]
    return model


def issues_of(text) -> list[str]:
    result = parse_model(text, "<test>")
    assert isinstance(result, list) and all(d.code == "build" for d in result)
    return [d.message for d in result]


def test_build_happy_path():
    model = built(BASE)
    assert model.name == "t"
    assert {p.name for p in model.platforms} == {"cloudy", "sensor"}
    device = model.platform("sensor")
    assert device.tier is PlatformTier.DEVICE
    assert device.energy.battery_capacity_mah == 100.0
    # residual defaults to a full battery
    assert device.energy.residual_energy_mah == 100.0
    assert isinstance(device.data_source, ConstantSource)
    assert model.component("Watcher").required_interfaces == ("Probe",)
    assert [app.name for app in model.applications if "Watcher" in app.component_names] == ["App"]


def test_collections_are_name_sorted():
    model = built("\n".join(reversed(BASE_BLOCKS)))
    assert [p.name for p in model.platforms] == ["cloudy", "sensor"]


def test_duplicate_names_rejected_per_category():
    messages = issues_of(BASE + 'cloud "cloudy" {}')
    assert any("cloudy" in m and "duplicate" in m.lower() for m in messages)


# Each category of names: the model field that holds it (components are held by
# applications), and the keywords its blocks start with.
NAMED = {
    "entity": ("physical_entities", ("entity",)),
    "interface": ("interfaces", ("interface",)),
    "platform": ("platforms", tuple(tier.value for tier in PlatformTier)),
    "contract": ("contracts", ("contract",)),
    "component": ("applications", ("component",)),
    "application": ("applications", ("application",)),
}


def names_in(model, category):
    if category == "component":
        return [c.name for c in model.all_components()]
    return [getattr(item, "name", item) for item in getattr(model, NAMED[category][0])]


def repeated(model, category, name, at, in_own_application=True):
    """The fields of ``model`` with the element ``name`` of ``category`` listed again,
    at ``at`` in its collection; a component is listed again in its own application
    or in a new, second one, and an application again with renamed members."""
    attr, _ = NAMED[category]
    items = getattr(model, attr)
    if category == "component":
        app = next(app for app in model.applications if name in app.component_names)
        component = model.component(name)
        if in_own_application:
            members = app.components[:at] + (component,) + app.components[at:]
            items = tuple(dataclasses.replace(a, components=members) if a is app else a
                          for a in items)
        else:
            items += (Application(app.name + "_2", app.region, (component,)),)
    else:
        item = next(i for i in items if getattr(i, "name", i) == name)
        if category == "application":  # with members of its own, so that only its name repeats
            item = dataclasses.replace(item, components=tuple(
                dataclasses.replace(c, name=c.name + "_2") for c in item.components))
        items = items[:at] + (item,) + items[at:]
    return {attr: items}


def with_second_block(text, category, name):
    """``text`` with the block that declares ``name`` in ``category`` written again."""
    headers = {f'{keyword} "{name}"' for keyword in NAMED[category][1]}
    block, = [b.strip() for b in text.split("\n\n") if b.split(" {", 1)[0] in headers]
    return f"{text}\n{block}\n"


def assert_refused_as_the_parser_refuses(model, category, name, changes, via_constructor):
    fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
    with pytest.raises(ModelError) as refused:
        if via_constructor:
            IoTSystemModel(**{**fields, **changes})
        else:
            dataclasses.replace(model, **changes)
    message = f"duplicate identifier: {category} {name!r}"
    assert [(i.message, i.subject, i.span) for i in refused.value.issues] == [(message, name, None)]
    diagnostics = parse_model(with_second_block(serialize_model(model), category, name))
    assert message in [d.message for d in diagnostics]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_model_refuses_one_repeated_name_with_the_parsers_message(padova_model, freshness_model,
                                                                    data):
    model = data.draw(st.sampled_from([padova_model, freshness_model]))
    names = {category: names_in(model, category) for category in NAMED}
    category = data.draw(st.sampled_from(sorted(c for c in NAMED if names[c])))
    name = data.draw(st.sampled_from(names[category]))
    in_own_application = data.draw(st.booleans())
    size = len(names[category]) if category != "component" else len(
        next(a for a in model.applications if name in a.component_names).components)
    changes = repeated(model, category, name, data.draw(st.integers(0, size)), in_own_application)
    assert_refused_as_the_parser_refuses(model, category, name, changes, data.draw(st.booleans()))


@pytest.mark.parametrize("via_constructor", [False, True])
def test_monitor_listed_twice_in_tankwatch_is_refused(freshness_model, via_constructor):
    # Unrefused, a counts-only run made a plan for each copy: 100,002 periodic requests, not 50,001.
    changes = repeated(freshness_model, "component", "Monitor", 1)
    assert [a.component_names for a in changes["applications"]] == [("Monitor", "Monitor")]
    assert_refused_as_the_parser_refuses(freshness_model, "component", "Monitor", changes,
                                         via_constructor)


def test_unknown_entity_reference():
    messages = issues_of(BASE.replace('attached_to = "post"', 'attached_to = "ghost"'))
    assert any("ghost" in m for m in messages)


def test_component_must_belong_to_exactly_one_application():
    messages = issues_of(BASE.replace(BASE_BLOCKS[-1], ""))
    assert any("Watcher" in m for m in messages)

    messages = issues_of(BASE + 'application "App2" { region = (0, 0) components = ["Watcher"] }')
    assert any("Watcher" in m for m in messages)


def test_application_unknown_component():
    messages = issues_of(BASE.replace('components = ["Watcher"]', 'components = ["Watcher", "Ghost"]'))
    assert any("Ghost" in m for m in messages)


def test_link_endpoints_must_exist_and_differ():
    messages = issues_of(BASE + 'link "cloudy" <-> "nowhere" { latency_ms = 1 }')
    assert any("nowhere" in m for m in messages)

    messages = issues_of(BASE + 'link "cloudy" <-> "sensor" { latency_ms = 9 }')
    assert any("second link" in m or "duplicate" in m.lower() for m in messages)


def test_device_without_battery_block_gets_generic_profile():
    profile = built(BASE).platform("sensor").energy
    assert profile.battery_capacity_mah == 100.0
    assert profile.depletion_threshold_mah == 5.0


def test_interface_declarations_enforced_when_present():
    messages = issues_of(BASE + 'interface "Probe" {}')  # ProbeClient missing
    assert any("ProbeClient" in m for m in messages)

    model = built(BASE + 'interface "Probe" {}\ninterface "ProbeClient" {}')
    assert model.interfaces == ("Probe", "ProbeClient")


def test_errors_are_collected_not_first_only():
    text = BASE.replace('attached_to = "post"', 'attached_to = "ghost"')
    messages = issues_of(text.replace('components = ["Watcher"]', 'components = ["Watcher", "Ghost"]'))
    assert len(messages) >= 2


def test_geo_location_bounds():
    GeoLocation(90.0, 180.0)
    with pytest.raises(Exception):
        GeoLocation(91.0, 0.0)
    with pytest.raises(Exception):
        GeoLocation(0.0, -181.0)


def test_trace_source_must_not_be_empty():
    with pytest.raises(Exception):
        TraceSource(())


def test_condition_render_uses_bare_ints():
    assert ConditionExpr("level", ">", 20.0).render() == "level > 20"
    assert ConditionExpr("level", "<=", 2.5).render() == "level <= 2.5"


def test_non_device_platform_rejects_device_fields():
    device = built(BASE).platform("sensor")
    for field in (dict(attached_to="post"), dict(energy=device.energy),
                  dict(data_source=device.data_source)):
        with pytest.raises(ModelError, match="device-only"):
            Platform(name="x", tier=PlatformTier.CLOUD, location=GeoLocation(0, 0),
                     cpu_frequency_ghz=1.0, provided_software=frozenset(),
                     mtbf_hours=10.0, mttr_hours=1.0, **field)


@pytest.mark.parametrize("build, message", [
    (lambda m: dataclasses.replace(m.platform("Michigan"), mtbf_hours=math.inf),
     "Michigan: Platform.mtbf_hours must be finite, got inf"),
    (lambda m: dataclasses.replace(m.platform("water_sensor_1").energy, packet_kb=math.nan),
     "DeviceEnergyProfile.packet_kb must be finite, got nan"),
    (lambda m: dataclasses.replace(m.sim_config, simulation_time=math.inf),
     "SimConfig.simulation_time must be finite, got inf"),
    (lambda m: SimConfig(tick_seconds=math.inf), "SimConfig.tick_seconds must be finite, got inf"),
    (lambda m: ConstantSource(math.nan), "ConstantSource.value must be finite, got nan"),
    (lambda m: TraceSource((1.0, math.inf)), "trace values must be finite, got inf"),
    (lambda m: NetworkLink("a", "b", "CoAP", latency_ms=math.inf, distance_m=1.0),
     "NetworkLink.latency_ms must be finite, got inf"),
    (lambda m: Component("c", mean_cpu_demand_cycles=math.inf),
     "c: Component.mean_cpu_demand_cycles must be finite, got inf"),
    (lambda m: PeriodicRequest("Read", -math.inf),
     "PeriodicRequest.interval_ticks must be finite, got -inf"),
    (lambda m: GeoLocation(math.nan, 0.0), "GeoLocation.latitude must be finite, got nan"),
    *((lambda m, ticks=ticks: PeriodicRequest("Read", ticks),
       f"PeriodicRequest.interval_ticks must be a whole number of ticks, got {ticks}")
      for ticks in (1.5, 2.0)),
    *((lambda m, ticks=ticks: dataclasses.replace(m.sim_config, simulation_time=ticks),
       f"SimConfig.simulation_time must be a whole number of ticks, got {ticks}")
      for ticks in (1.5, 2.0)),
    *((lambda m, ticks=ticks: FreshnessPolicy(ticks),
       f"FreshnessPolicy.max_age_ticks must be a whole number of ticks, got {ticks}")
      for ticks in (1.5, 2.0)),
    # Not numbers, and bools, which are ints to Python but never a number here.
    (lambda m: PeriodicRequest("Read", "5"),
     "PeriodicRequest.interval_ticks must be a number, got '5'"),
    (lambda m: SimConfig(tick_seconds="60"), "SimConfig.tick_seconds must be a number, got '60'"),
    (lambda m: GeoLocation("1", 2), "GeoLocation.latitude must be a number, got '1'"),
    (lambda m: ConstantSource(None), "ConstantSource.value must be a number, got None"),
    (lambda m: ConditionExpr("x", ">", "3"), "ConditionExpr.threshold must be a number, got '3'"),
    (lambda m: UniformSource("0", 30), "UniformSource.lo must be a number, got '0'"),
    (lambda m: TraceSource((1.0, "2")), "TraceSource.values must be numbers, got '2'"),
    (lambda m: PeriodicRequest("Read", True),
     "PeriodicRequest.interval_ticks must be a number, got True"),
    (lambda m: FreshnessPolicy(True),
     "FreshnessPolicy.max_age_ticks must be a whole number of ticks, got True"),
    (lambda m: SimConfig(simulation_time=False),
     "SimConfig.simulation_time must be a number, got False"),
    (lambda m: NetworkLink("a", "b", "CoAP", latency_ms=True, distance_m=1.0),
     "NetworkLink.latency_ms must be a number, got True"),
    # Whole-number fields that are not counts of ticks: written out, a float or
    # a bool in one made text the parser refuses, and a run met a bare TypeError.
    *((lambda m, seed=seed: SimConfig(rng_seed=seed),
       f"SimConfig.rng_seed must be a whole number, got {seed!r}") for seed in (1.5, True, "7")),
    *((lambda m, seed=seed: UniformSource(0, 30, seed),
       f"UniformSource.seed must be a whole number, got {seed!r}") for seed in (1.5, True, "7")),
    (lambda m: dataclasses.replace(m.platform("water_sensor_1").energy, loss_exponent_n=2.5),
     "DeviceEnergyProfile.loss_exponent_n must be a whole number, got 2.5"),
    (lambda m: dataclasses.replace(m.platform("water_sensor_1").energy, loss_exponent_n=True),
     "DeviceEnergyProfile.loss_exponent_n must be a number, got True"),
    *((lambda m, distance=distance: run_simulation(
        m, sink=None, distance_overrides={"water_sensor_1": distance}),
       f"transmit distance must be finite and positive: {distance!r}") for distance in ("5", True)),
], ids=["mtbf", "packet", "sim-time", "tick", "constant", "trace", "latency", "cpu-demand",
        "interval", "latitude", "interval-1.5", "interval-2.0", "sim-time-1.5", "sim-time-2.0",
        "max-age-1.5", "max-age-2.0", "interval-str", "tick-str", "latitude-str", "constant-none",
        "threshold-str", "uniform-lo-str", "trace-str", "interval-bool", "max-age-bool",
        "sim-time-bool", "latency-bool", "seed-1.5", "seed-bool", "seed-str", "uniform-seed-1.5",
        "uniform-seed-bool", "uniform-seed-str", "loss-exponent-2.5", "loss-exponent-bool",
        "distance-str", "distance-bool"])
def test_a_non_finite_number_built_in_code_is_a_model_error(padova_model, build, message):
    # The parser refuses such numbers; a model built in code must too, or an
    # analysis reads nan (an inf MTBF made most padova availabilities nan).
    # A count of ticks must also be an int: a float one ran into a bare TypeError.
    # Anything that is not a number is refused by name, not by a bare TypeError.
    with pytest.raises(ModelError) as refused:
        build(padova_model)
    assert str(refused.value) == message


# routing ------------------------------------------------------------------


def diamond_model(low_road=3.0):
    """a - b - d and a - c - d; the b road is the cheap one by default."""
    return built('system "diamond" {}\n'
                 + "".join(f'fog "{n}" {{}}\n' for n in "abcd")
                 + 'link "a" <-> "b" { latency_ms = 1 }\n'
                 + f'link "b" <-> "d" {{ latency_ms = {low_road} }}\n'
                 + 'link "a" <-> "c" { latency_ms = 2 }\n'
                 + 'link "c" <-> "d" { latency_ms = 10 }\n')


def test_shortest_path_picks_lower_latency():
    model = diamond_model()
    route = route_between(model, "a", "d")
    assert route.latency_ms == 4.0
    assert route.path == ("a", "b", "d")


def test_shortest_path_tie_breaks_lexicographically():
    model = diamond_model(low_road=11.0)  # a-b-d now costs 12, a-c-d costs 12
    route = route_between(model, "a", "d")
    assert route.latency_ms == 12.0
    assert route.path == ("a", "b", "d")


def test_route_to_self_is_free():
    model = diamond_model()
    route = route_between(model, "b", "b")
    assert route == Route(0.0, ("b",))


def test_unreachable_returns_none():
    model = built('system "split" {}\nfog "a" {}\nfog "b" {}')
    assert route_between(model, "a", "b") is None


def test_single_source_routes_cover_every_reachable_platform():
    model = diamond_model()
    routes = single_source_routes(model, "a")
    assert set(routes) == {"a", "b", "c", "d"}
    assert routes["a"].latency_ms == 0.0
    assert routes["c"].latency_ms == 2.0


def test_unknown_platform_raises():
    model = diamond_model()
    with pytest.raises(ModelError):
        route_between(model, "a", "zz")


def test_single_source_routes_refuse_an_unknown_source():
    with pytest.raises(ModelError) as refused:
        single_source_routes(diamond_model(), "zz")
    assert type(refused.value) is ModelError and str(refused.value) == "unknown platform: 'zz'"


def test_cached_facts_stay_out_of_equality_and_replace():
    import dataclasses

    from iotdraw.modelfmt import serialize_model

    primed, fresh = diamond_model(), diamond_model()
    assert route_between(primed, "a", "d").latency_ms == 4.0
    assert primed.platform("c").name == "c"
    assert primed == fresh and hash(primed) == hash(fresh)
    assert repr(primed) == repr(fresh)
    assert serialize_model(primed) == serialize_model(fresh)
    # a replaced model answers from its own fields, not the original's cache
    cheap_c = tuple(dataclasses.replace(link, latency_ms=0.5) if "c" in link.endpoints else link
                    for link in primed.networks)
    rerouted = dataclasses.replace(primed, networks=cheap_c)
    assert route_between(rerouted, "a", "d").path == ("a", "c", "d")
    assert route_between(primed, "a", "d").path == ("a", "b", "d")


def test_copies_and_pickles_leave_the_cache_behind():
    import copy
    import pickle

    primed = diamond_model()
    assert route_between(primed, "a", "d").latency_ms == 4.0
    assert primed._derived
    for clone in (copy.deepcopy(primed), pickle.loads(pickle.dumps(primed))):
        assert clone == primed and clone is not primed
        assert clone._derived == {}
        assert route_between(clone, "a", "d") == route_between(primed, "a", "d")



@pytest.mark.parametrize("args, kwargs, refused", [
    (("Port", "Iface", "CoAP", "extra"), {}, "too many positional arguments"),
    (("Port",), {"name": "Other", "interface": "Iface", "protocol": "CoAP"},
     "multiple values for argument 'name'"),
    (("Port", "Iface"), {"zone": "CoAP"}, "missing a required argument: 'protocol'"),
    ((), {"name": "Port", "interface": "Iface", "protocol": "CoAP", "zone": "x"},
     "got an unexpected keyword argument 'zone'"),
    (("Port",), {"interface": "Iface"}, "missing a required argument: 'protocol'"),
], ids=["too-many", "twice", "unknown-for-missing", "unknown", "missing"])
def test_a_record_refuses_a_call_that_does_not_give_each_field_one_value(args, kwargs, refused):
    with pytest.raises(TypeError, match=refused):
        ServicePort(*args, **kwargs)


def test_a_record_is_built_by_position_keyword_and_default():
    built = [ServicePort("Port", "Iface", "CoAP"),
             ServicePort("Port", protocol="CoAP", interface="Iface"),
             ServicePort(protocol="CoAP", name="Port", interface="Iface")]
    assert all(vars(port) == {"name": "Port", "interface": "Iface", "protocol": "CoAP"}
               for port in built)
    assert GeoLocation(1.0, longitude=2.0) == GeoLocation(1.0, 2.0)
    assert SimConfig(tick_seconds=30.0) == SimConfig(0, 30.0, (), 0)
