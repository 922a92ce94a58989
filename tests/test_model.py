"""Domain model construction, cross-reference checks, and routing."""

import pytest

from iotdraw.model import (
    ApplicationDecl, ComponentDecl, ConditionExpr, ConstantSource, ContractDecl,
    Declarations, DeviceEnergyProfile, EnergyDecl, EntityDecl, GeoLocation,
    InterfaceDecl, LinkDecl, ModelError, PlatformDecl, PlatformTier, Route,
    ServicePort, SystemDecl, Task, TaskKind, TraceSource, build_system,
    single_source_routes,
)
from iotdraw.validate import route_between


def base_decls(**overrides) -> Declarations:
    decls = Declarations(
        system=SystemDecl(name="t"),
        entities=[EntityDecl("post", (1.0, 2.0))],
        platforms=[
            PlatformDecl("cloudy", tier=PlatformTier.CLOUD,
                         provided_software=["jboss"]),
            PlatformDecl("sensor", tier=PlatformTier.DEVICE, attached_to="post",
                         energy=EnergyDecl(),
                         services=[ServicePort("P", "Probe", "CoAP")]),
        ],
        links=[LinkDecl("sensor", "cloudy", latency_ms=1.0, distance_m=5.0)],
        contracts=[ContractDecl("UseProbe", provider_interface="Probe",
                                consumer_interface="ProbeClient",
                                tasks=[Task("Read", TaskKind.SENSE)])],
        components=[ComponentDecl("Watcher", required_software=["jboss"],
                                  required_interfaces=["Probe"])],
        applications=[ApplicationDecl("App", (0.0, 0.0), ["Watcher"])],
    )
    for key, value in overrides.items():
        setattr(decls, key, value)
    return decls


def issues_of(decls) -> list[str]:
    with pytest.raises(ModelError) as err:
        build_system(decls)
    return [issue.message for issue in err.value.issues]


def test_build_happy_path():
    model = build_system(base_decls())
    assert model.name == "t"
    assert {p.name for p in model.platforms} == {"cloudy", "sensor"}
    device = model.platform("sensor")
    assert device.tier is PlatformTier.DEVICE
    assert device.energy.battery_capacity_mah == 100.0
    # residual defaults to a full battery
    assert device.energy.residual_energy_mah == 100.0
    assert isinstance(device.data_source, ConstantSource)
    assert model.component("Watcher").required_interfaces == ("Probe",)
    assert model.application_of("Watcher").name == "App"


def test_collections_are_name_sorted():
    decls = base_decls()
    decls.platforms.reverse()
    model = build_system(decls)
    assert [p.name for p in model.platforms] == ["cloudy", "sensor"]


def test_duplicate_names_rejected_per_category():
    decls = base_decls()
    decls.platforms.append(PlatformDecl("cloudy"))
    messages = issues_of(decls)
    assert any("cloudy" in m and "duplicate" in m.lower() for m in messages)


def test_unknown_entity_reference():
    decls = base_decls()
    decls.platforms[1].attached_to = "ghost"
    messages = issues_of(decls)
    assert any("ghost" in m for m in messages)


def test_component_must_belong_to_exactly_one_application():
    decls = base_decls()
    decls.applications = []
    messages = issues_of(decls)
    assert any("Watcher" in m for m in messages)

    decls = base_decls()
    decls.applications.append(ApplicationDecl("App2", (0.0, 0.0), ["Watcher"]))
    messages = issues_of(decls)
    assert any("Watcher" in m for m in messages)


def test_application_unknown_component():
    decls = base_decls()
    decls.applications[0].component_names = ["Watcher", "Ghost"]
    messages = issues_of(decls)
    assert any("Ghost" in m for m in messages)


def test_link_endpoints_must_exist_and_differ():
    decls = base_decls()
    decls.links.append(LinkDecl("cloudy", "nowhere", latency_ms=1.0))
    messages = issues_of(decls)
    assert any("nowhere" in m for m in messages)

    decls = base_decls()
    decls.links.append(LinkDecl("cloudy", "sensor", latency_ms=9.0))
    messages = issues_of(decls)
    assert any("second link" in m or "duplicate" in m.lower() for m in messages)


def test_device_without_battery_block_gets_generic_profile():
    decls = base_decls()
    decls.platforms[1].energy = None
    model = build_system(decls)
    profile = model.platform("sensor").energy
    assert profile.battery_capacity_mah == 100.0
    assert profile.depletion_threshold_mah == 5.0


def test_cloud_rejects_device_only_fields():
    decls = base_decls()
    decls.platforms[0].energy = EnergyDecl()
    messages = issues_of(decls)
    assert any("cloudy" in m for m in messages)


def test_interface_declarations_enforced_when_present():
    decls = base_decls()
    decls.interfaces = [InterfaceDecl("Probe")]  # ProbeClient missing
    messages = issues_of(decls)
    assert any("ProbeClient" in m for m in messages)

    decls = base_decls()
    decls.interfaces = [InterfaceDecl("Probe"), InterfaceDecl("ProbeClient")]
    model = build_system(decls)
    assert model.interfaces == ("Probe", "ProbeClient")


def test_errors_are_collected_not_first_only():
    decls = base_decls()
    decls.platforms[1].attached_to = "ghost"
    decls.applications[0].component_names = ["Watcher", "Ghost"]
    messages = issues_of(decls)
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
    with pytest.raises(Exception):
        # a direct constructor call, not via declarations
        from iotdraw.model import Platform
        Platform(name="x", tier=PlatformTier.CLOUD, location=GeoLocation(0, 0),
                 cpu_frequency_ghz=1.0, provided_software=frozenset(),
                 mtbf_hours=10.0, mttr_hours=1.0, attached_to="post")


# routing ------------------------------------------------------------------


def diamond_model(low_road=3.0):
    """a - b - d and a - c - d; the b road is the cheap one by default."""
    decls = Declarations(
        system=SystemDecl(name="diamond"),
        platforms=[PlatformDecl(n, tier=PlatformTier.FOG) for n in "abcd"],
        links=[
            LinkDecl("a", "b", latency_ms=1.0),
            LinkDecl("b", "d", latency_ms=low_road),
            LinkDecl("a", "c", latency_ms=2.0),
            LinkDecl("c", "d", latency_ms=10.0),
        ],
    )
    return build_system(decls)


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
    decls = Declarations(
        system=SystemDecl(name="split"),
        platforms=[PlatformDecl(n, tier=PlatformTier.FOG) for n in "ab"],
    )
    model = build_system(decls)
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

