"""Differential tests: the engine against the tick-by-tick reference in conftest.

Random models mix several periodic plans with different intervals, all
three data sources, devices with no link, one link or two, providers that
are not devices, contracts with any mix of tasks, and event requests on
either kind of provider.  Some uniform sources have ``lo == hi``, and some
thresholds equal a uniform source's bound, so a condition can hold with
equality.  Each run draws a freshness window of 0 to 5 ticks and a halt
set.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import statistics

import pytest
from hypothesis import assume, given, settings, strategies as st

from iotdraw import COLLECT, FreshnessPolicy, csv_event_sink, lifetime_sweep, run_simulation
from iotdraw.energy import per_request_drain_mah
from iotdraw.model import (
    CONDITION_OPS, Application, Component, ConditionExpr, ConstantSource, DeviceEnergyProfile,
    EventRequest, GeoLocation, IoTSystemModel, MessageField, MessageType, NetworkLink,
    PeriodicRequest, Platform, PlatformTier, ServiceContract, ServicePort, SimConfig, Task,
    TaskKind, TraceSource, UniformSource,
)
from iotdraw.rng import SplitMix64, derive_seed

from conftest import reference_run

PER = 1.5e-4  # about one sense and transmit on the devices below, in mAh
HERE = GeoLocation(1.0, 2.0)
_READING = st.floats(-50.0, 50.0, allow_nan=False)
_SEED = st.none() | st.integers(0, 2**64 - 1)
_SOURCE = st.one_of(
    st.builds(ConstantSource, _READING),
    st.builds(lambda a, b, seed: UniformSource(min(a, b), max(a, b), seed),
              _READING, _READING, _SEED),
    # Every reading is lo, so a threshold at lo tells "=" from "!=" and ">" from ">=".
    st.builds(lambda a, seed: UniformSource(a, a, seed), _READING, _SEED),
    st.builds(lambda values: TraceSource(tuple(values)), st.lists(_READING, min_size=1, max_size=4)),
)
# Half the names hold a comma, a quote or a carriage return, so their log fields are quoted.
_NAME_TAIL = st.sampled_from(["", "", "", ", q", '"q', "\rq"])
_TASK_KINDS = st.sampled_from([TaskKind.SENSE, TaskKind.SENSE, TaskKind.ACTUATE, TaskKind.COMPUTE])


def _platform(name, tier, **device):
    return Platform(name, tier, HERE, cpu_frequency_ghz=1.0, provided_software=frozenset(),
                    mtbf_hours=100.0, mttr_hours=1.0, **device)


@st.composite
def simulated_models(draw) -> IoTSystemModel:
    """A small model that runs: every task names one contract, every interface one provider."""
    platforms = [_platform("hub", PlatformTier.FOG, services=(ServicePort("hub_port", "IHub", "CoAP"),)),
                 _platform("hub2", PlatformTier.FOG)]
    links, edges = [], []  # edges: the bounds of the uniform sources
    interfaces = ["IHub", "ISrv"]
    for index in range(draw(st.integers(1, 3))):
        name = f"d{index}" + draw(_NAME_TAIL)
        capacity = 5.0 + draw(st.floats(0.0, 12.0)) * PER + 1e-9
        residual = draw(st.sampled_from([capacity, capacity, 5.0 + draw(st.floats(0.0, 4.0)) * PER]))
        platforms.append(_platform(
            name, PlatformTier.DEVICE, services=(ServicePort(f"{name}_port", f"I{name}", "CoAP"),),
            energy=DeviceEnergyProfile(
                battery_capacity_mah=capacity, residual_energy_mah=min(residual, capacity),
                supply_voltage_v=3.0, sense_current_ma=draw(st.sampled_from([10.0, 25.0])),
                sense_duration_ms=10.0, packet_kb=2.0, e_elec_nj_per_bit=50.0,
                e_amp_pj_per_bit_m=100.0, loss_exponent_n=2, depletion_threshold_mah=5.0),
            data_source=draw(_SOURCE)))
        if isinstance(platforms[-1].data_source, UniformSource):
            edges += [platforms[-1].data_source.lo, platforms[-1].data_source.hi]
        interfaces.append(f"I{name}")
        for hub in draw(st.lists(st.sampled_from(["hub", "hub2"]), unique=True, max_size=2)):
            links.append(NetworkLink(*sorted((name, hub)), protocol="CoAP",
                                     latency_ms=draw(st.sampled_from([1.0, 2.0])),
                                     distance_m=draw(st.floats(1.0, 50.0))))

    contracts, tasks = [], {}
    for interface in interfaces:
        kinds = draw(st.lists(_TASK_KINDS, min_size=1, max_size=3))
        names = [f"{interface}_t{j}" for j in range(len(kinds))]
        tasks[interface] = names
        fields = draw(st.sampled_from([["x"], ["x"], ["x", "y"], ["y"], []]))
        contracts.append(ServiceContract(
            f"C{interface}", interface, f"{interface}Client",
            tuple(Task(n, k) for n, k in zip(names, kinds)),
            MessageType(f"{interface}Message", tuple(MessageField(f) for f in fields))))

    condition = st.builds(ConditionExpr, st.sampled_from(["x", "y"]), st.sampled_from(CONDITION_OPS),
                          st.sampled_from(edges) | _READING if edges else _READING)
    # Devices serve two requests in three.
    task = st.sampled_from(interfaces + interfaces[2:] * 2).flatmap(
        lambda interface: st.sampled_from(tasks[interface]))
    components = [Component("Srv", provided_service=ServicePort("srv_port", "ISrv", "HTTP"))]
    for index in range(draw(st.integers(1, 4))):
        components.append(Component(
            f"c{index}" + draw(_NAME_TAIL),
            periodic_request=draw(st.sampled_from([None, 1, 1, 1]).flatmap(
                lambda some: st.just(None) if some is None
                else st.builds(PeriodicRequest, task, st.integers(1, 6)))),
            event_request=draw(st.none() | st.builds(EventRequest, task, condition))))
    owners = [0] + [draw(st.integers(0, 1)) for _ in components[1:]]
    applications = []
    for app in range(2):
        members = [c for c, owner in zip(components, owners) if owner == app]
        if members:
            applications.append(Application(f"a{app}", HERE, tuple(draw(st.permutations(members)))))
    return IoTSystemModel(
        "differential", platforms=tuple(platforms), networks=tuple(links),
        applications=tuple(applications), contracts=tuple(contracts),
        sim_config=SimConfig(simulation_time=draw(st.integers(0, 80)),
                             rng_seed=draw(st.integers(0, 2**64 - 1))))


def _devices(model):
    return sorted(p.name for p in model.platforms if p.tier is PlatformTier.DEVICE)


@st.composite
def runs(draw):
    model = draw(simulated_models())
    return (model, draw(st.integers(0, 5)), draw(st.sets(st.sampled_from(_devices(model)))),
            draw(st.none() | st.integers(0, 2**64 - 1)))


def _csv(rows):
    """The reference log as ``csv.writer`` writes it, apart from the engine: each record
    with a ``\\r\\n`` terminator, so a field holding ``\\r`` is quoted too, ended by ``\\n``."""
    records = []
    for row in [("tick", "kind", "subject", "detail"), *rows]:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        records.append(buffer.getvalue()[:-2] + "\n")
    return "".join(records)


def _assert_matches_the_reference(model, max_age, halt_on, seed, distance_overrides=None):
    """A collected, a streamed and a counts-only run each report what the reference
    does, and both logs are its log byte for byte."""
    expected = reference_run(model, max_age, halt_on, seed=seed,
                             distance_overrides=distance_overrides)
    expected_csv = _csv(expected.events)
    streamed = []
    for sink in (COLLECT, None, streamed.append):
        report = run_simulation(model, FreshnessPolicy(max_age), halt_on, seed=seed, sink=sink,
                                distance_overrides=distance_overrides)
        for attribute in ("counts", "residual_mah", "lifetimes", "final_tick", "halted_by"):
            assert getattr(report, attribute) == getattr(expected, attribute), (attribute, sink)
        if sink is COLLECT:
            assert report.events_csv() == expected_csv
            assert [tuple(event) for event in report.events] == expected.events
    assert "tick,kind,subject,detail\n" + "".join(streamed) == expected_csv


@settings(max_examples=400, deadline=None)
@given(case=runs())
def test_engine_matches_the_reference(case):
    _assert_matches_the_reference(*case)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_distance_overrides_match_the_reference(data):
    # Each overridden device with a link senses at the drawn distance, which its sense
    # records' detail shows; a device with no link keeps none.
    model, max_age, halt_on, seed = data.draw(runs())
    overrides = data.draw(st.dictionaries(st.sampled_from(_devices(model)), st.floats(1.0, 50.0)))
    _assert_matches_the_reference(model, max_age, halt_on, seed, overrides)


@st.composite
def watched_models(draw) -> IoTSystemModel:
    """One uniform probe polled by one to four plans, each one sense task, in two
    applications: the first has one or two plans and at least one watcher, which
    rings a bell; the second has up to two plans and no watcher, so they draw nothing.  A third of the probes
    read a single value; a quarter of the thresholds are the probe's bounds, and half
    lie between them."""
    lo, hi = sorted(draw(st.tuples(_READING, _READING)))
    hi = draw(st.sampled_from([lo, hi, hi]))
    message = MessageType("M", (MessageField("x"),))
    platforms = (
        _platform("hub", PlatformTier.FOG),
        _platform("probe", PlatformTier.DEVICE, services=(ServicePort("p", "IProbe", "CoAP"),),
                  energy=_energy(5.0 + draw(st.floats(4.0, 30.0)) * PER + 1e-9),
                  data_source=UniformSource(lo, hi, draw(_SEED))),
        _platform("bell", PlatformTier.DEVICE, services=(ServicePort("b", "IBell", "CoAP"),),
                  energy=_energy(50.0), data_source=ConstantSource(0.0)))
    between = st.integers(1, 99).map(lambda percent: lo + (hi - lo) * percent / 100)
    condition = st.builds(ConditionExpr, st.just("x"), st.sampled_from(CONDITION_OPS),
                          st.one_of(st.sampled_from([lo, hi]), _READING, between, between))
    event = st.builds(EventRequest, st.just("ring"), condition)
    poll = st.integers(1, 6).map(lambda interval: PeriodicRequest("read", interval))
    watched = [Component(f"w{index}", periodic_request=draw(poll),
                         event_request=draw(event if index == 0 else st.none() | event))
               for index in range(draw(st.integers(1, 2)))]
    plain = [Component(f"p{index}", periodic_request=draw(poll))
             for index in range(draw(st.integers(0, 2)))]
    return IoTSystemModel(
        "watched", platforms=platforms,
        networks=tuple(NetworkLink(d, "hub", protocol="CoAP", latency_ms=1.0, distance_m=10.0)
                       for d in ("bell", "probe")),
        applications=tuple(Application(name, HERE, tuple(members))
                           for name, members in (("a0", watched), ("a1", plain)) if members),
        contracts=(ServiceContract("CProbe", "IProbe", "IProbeClient",
                                   (Task("read", TaskKind.SENSE),), message),
                   ServiceContract("CBell", "IBell", "IBellClient",
                                   (Task("ring", TaskKind.ACTUATE),), message)),
        sim_config=SimConfig(simulation_time=draw(st.integers(20, 80)), rng_seed=0))


@settings(max_examples=200, deadline=None)
@given(model=watched_models(), max_age=st.integers(0, 5), halt=st.booleans(), seed=_SEED)
def test_counts_only_watchers_match_the_reference(model, max_age, halt, seed):
    # Plans of one probe share its stream and its cache, whether or not a watcher reads them.
    halt_on = {"probe"} if halt else set()
    expected = reference_run(model, max_age, halt_on, seed=seed)
    report = run_simulation(model, FreshnessPolicy(max_age), halt_on, seed=seed, sink=None)
    for attribute in ("counts", "residual_mah", "lifetimes", "final_tick", "halted_by"):
        assert getattr(report, attribute) == getattr(expected, attribute), attribute


def _with_interval(model, component, interval):
    """The model with one component's periodic request interval set."""
    def replace(c):
        if c.name != component:
            return c
        return dataclasses.replace(c, periodic_request=PeriodicRequest(c.periodic_request.task,
                                                                       interval))
    return dataclasses.replace(model, applications=tuple(
        dataclasses.replace(app, components=tuple(replace(c) for c in app.components))
        for app in model.applications))


def _served_by(model, device):
    """The components whose periodic request the device serves."""
    served = []
    for component in model.all_components():
        if component.periodic_request is None:
            continue
        task = component.periodic_request.task
        (contract,) = [c for c in model.contracts if c.task(task) is not None]
        if contract.provider_interface == f"I{device}":
            served.append(component.name)
    return served


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lifetime_sweep_matches_reference_runs(data):
    model = data.draw(simulated_models())
    candidates = [d for d in _devices(model) if len(_served_by(model, d)) == 1]
    assume(candidates)
    device = data.draw(st.sampled_from(candidates))
    (component,) = _served_by(model, device)
    by_interval = data.draw(st.booleans())
    values = data.draw(st.lists(st.integers(1, 6) if by_interval else st.integers(0, 5),
                                min_size=1, max_size=3, unique=True))
    rounds, seed = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2**32))
    table = lifetime_sweep(model, device, rounds=rounds, seed=seed,
                           **{"intervals" if by_interval else "max_ages": values})

    observed = {value: [] for value in values}
    for round_index in range(rounds):
        distance = SplitMix64(derive_seed(seed, "distance", round_index)).uniform(1.0, 50.0)
        for value in values:
            variant = _with_interval(model, component, value) if by_interval else model
            run = reference_run(variant, 0 if by_interval else value, {device},
                                seed=derive_seed(seed, "run", round_index),
                                distance_overrides={device: distance})
            observed[value].append(run.lifetimes[device])
    for row, value in zip(table.rows, values, strict=True):
        lifetimes = [t for t in observed[value] if t is not None]
        assert row.parameter == value
        assert row.depleted_rounds == len(lifetimes)
        assert row.mean == (statistics.fmean(lifetimes) if lifetimes else None)
        assert row.stddev == (statistics.pstdev(lifetimes) if lifetimes else None)
        censored = rounds - len(lifetimes)
        assert row.note == (f"{censored} round(s) outlived the horizon" if censored else "")


def _energy(capacity):
    return DeviceEnergyProfile(
        battery_capacity_mah=capacity, residual_energy_mah=capacity, supply_voltage_v=3.0,
        sense_current_ma=25.0, sense_duration_ms=10.0, packet_kb=2.0, e_elec_nj_per_bit=50.0,
        e_amp_pj_per_bit_m=100.0, loss_exponent_n=2, depletion_threshold_mah=5.0)


@pytest.mark.parametrize("sensor_interval", [1, 3])
def test_an_alarm_fails_once_another_plan_depletes_its_device(sensor_interval):
    # d0 serves a sense contract and an actuate-only one.  Plan "poll" drains
    # d0 while plan "watch" samples d1, whose readings raise an alarm on d0:
    # the alarms after d0 depletes must fail, though "watch" never drains d0.
    message = MessageType("M", (MessageField("x"),))
    platforms = (
        _platform("hub", PlatformTier.FOG),
        _platform("d0", PlatformTier.DEVICE, energy=_energy(5.0 + 4.5 * PER),
                  data_source=ConstantSource(1.0),
                  services=(ServicePort("sense", "ISense", "CoAP"),
                            ServicePort("alarm", "IAlarm", "CoAP"))),
        _platform("d1", PlatformTier.DEVICE, energy=_energy(50.0), data_source=ConstantSource(2.0),
                  services=(ServicePort("level", "ILevel", "CoAP"),)))
    model = IoTSystemModel(
        "alarm_on_a_drained_device", platforms=platforms,
        networks=tuple(NetworkLink(d, "hub", protocol="CoAP", latency_ms=1.0, distance_m=10.0)
                       for d in ("d0", "d1")),
        applications=(
            Application("a0", HERE, (Component(
                "poll", periodic_request=PeriodicRequest("sense", sensor_interval)),)),
            Application("a1", HERE, (Component(
                "watch", periodic_request=PeriodicRequest("level", 1),
                event_request=EventRequest("ring", ConditionExpr("x", ">", 0.0))),))),
        contracts=(ServiceContract("CSense", "ISense", "ISenseClient",
                                   (Task("sense", TaskKind.SENSE),), message),
                   ServiceContract("CAlarm", "IAlarm", "IAlarmClient",
                                   (Task("ring", TaskKind.ACTUATE),), message),
                   ServiceContract("CLevel", "ILevel", "ILevelClient",
                                   (Task("level", TaskKind.SENSE),), message)),
        sim_config=SimConfig(simulation_time=30, rng_seed=1))
    expected = reference_run(model)
    assert expected.lifetimes["d0"] is not None
    assert any(kind == "EventRequest" and detail.endswith("status=failed:provider-depleted")
               for _, kind, _, detail in expected.events)
    for sink in (COLLECT, None):
        report = run_simulation(model, sink=sink)
        for attribute in ("counts", "residual_mah", "lifetimes", "final_tick", "halted_by"):
            assert getattr(report, attribute) == getattr(expected, attribute), (attribute, sink)
    assert [tuple(event) for event in run_simulation(model).events] == expected.events


@pytest.mark.parametrize("depleting", [0, 1, 255, 256, 1100, None])
@pytest.mark.parametrize("max_age", [0, 2])
@pytest.mark.parametrize("source", [UniformSource(0.0, 30.0, 9), TraceSource((5.0, 25.0, 2.5)),
                                    ConstantSource(21.0)], ids=["uniform", "sequence", "constant"])
def test_long_logged_runs_match_the_reference(source, max_age, depleting):
    # 4100 ticks: many of a streamed log's batches of 256 firings, and a collected run's
    # draw of more than 1024 readings in one batch.  The probe's sense number ``depleting``
    # (from 0) depletes it, which without a cache is the plan's firing of that number:
    # 0, 1, 255 and 256 lie at both edges of the first two streamed batches.  Its readings
    # ring a bell, and blink the probe itself, which fails once the probe depletes.
    message = MessageType("M", (MessageField("x"),))
    per = per_request_drain_mah(_energy(50.0), 10.0)
    capacity = 50.0 if depleting is None else 5.0 + (depleting + 0.5) * per
    platforms = (
        _platform("hub", PlatformTier.FOG),
        _platform("probe", PlatformTier.DEVICE, energy=_energy(capacity), data_source=source,
                  services=(ServicePort("p", "IProbe", "CoAP"), ServicePort("l", "ILed", "CoAP"))),
        _platform("bell", PlatformTier.DEVICE, energy=_energy(50.0),
                  data_source=ConstantSource(0.0), services=(ServicePort("b", "IBell", "CoAP"),)))
    model = IoTSystemModel(
        "long", platforms=platforms,
        networks=tuple(NetworkLink(d, "hub", protocol="CoAP", latency_ms=1.0, distance_m=10.0)
                       for d in ("bell", "probe")),
        applications=(Application("a0", HERE, (
            Component("poll", periodic_request=PeriodicRequest("read", 1)),
            Component("alarm", event_request=EventRequest("ring", ConditionExpr("x", ">", 20.0))),
            Component("led", event_request=EventRequest("blink", ConditionExpr("x", ">=", 5.0))),
        )),),
        contracts=(ServiceContract("CProbe", "IProbe", "IProbeClient",
                                   (Task("read", TaskKind.SENSE),), message),
                   ServiceContract("CLed", "ILed", "ILedClient",
                                   (Task("blink", TaskKind.ACTUATE),), message),
                   ServiceContract("CBell", "IBell", "IBellClient",
                                   (Task("ring", TaskKind.ACTUATE),), message)),
        sim_config=SimConfig(simulation_time=4100, rng_seed=0))
    expected = reference_run(model, max_age)
    assert expected.lifetimes["probe"] == (None if depleting is None
                                           else depleting * (max_age + 1))
    streamed = io.StringIO()
    for sink in (COLLECT, csv_event_sink(streamed)):
        report = run_simulation(model, FreshnessPolicy(max_age), sink=sink)
        for attribute in ("counts", "residual_mah", "lifetimes", "final_tick", "halted_by"):
            assert getattr(report, attribute) == getattr(expected, attribute), (attribute, sink)
        if sink is COLLECT:
            assert report.events_csv() == _csv(expected.events)
    assert streamed.getvalue() == _csv(expected.events)


@st.composite
def many_plan_models(draw) -> IoTSystemModel:
    """Two to six periodic plans over 300 to 5,000 ticks.  Each plan polls one of one
    to four sensors, so some share a device and some do not, at intervals of 1 to 6.
    Up to four watchers, in the plans' application or in another, ring one of two
    bells (one has no link, so it fails as no-route) or blink a sensor, which fails
    once that sensor depletes; each tests ``x``, which every sensor's message carries,
    so several watchers test one plan and one watcher tests several plans.  Sensors
    deplete after a drawn number of senses, or never; one watcher in five senses a
    sensor, which puts the plans it watches in the generic kernel."""
    per = per_request_drain_mah(_energy(50.0), 10.0)
    sensors = [f"s{index}" + draw(_NAME_TAIL) for index in range(draw(st.integers(1, 4)))]
    platforms, edges = [_platform("hub", PlatformTier.FOG)], []
    for name in sensors:
        senses = draw(st.none() | st.integers(0, 40) | st.integers(200, 3000) | st.integers(200, 3000))
        source = draw(_SOURCE)
        if isinstance(source, UniformSource):
            edges += [source.lo, source.hi]
        platforms.append(_platform(
            name, PlatformTier.DEVICE, data_source=source,
            energy=_energy(50.0 if senses is None else 5.0 + (senses + 0.5) * per),
            services=(ServicePort(f"{name}_read", f"IS{name}", "CoAP"),
                      ServicePort(f"{name}_led", f"IL{name}", "CoAP"))))
    bells = ["bell", "mute"]  # only the first has a link
    platforms += [_platform(name, PlatformTier.DEVICE, energy=_energy(50.0),
                            data_source=ConstantSource(0.0),
                            services=(ServicePort(f"{name}_port", f"IB{name}", "CoAP"),))
                  for name in bells]
    message = MessageType("M", (MessageField("x"),))
    contracts = [ServiceContract(f"C{kind}{name}", f"I{kind}{name}", f"I{kind}{name}Client",
                                 (Task(f"{kind}{name}", task_kind),), message)
                 for name in sensors for kind, task_kind in (("S", TaskKind.SENSE),
                                                             ("L", TaskKind.ACTUATE))]
    contracts += [ServiceContract(f"CB{name}", f"IB{name}", f"IB{name}Client",
                                  (Task(f"B{name}", TaskKind.ACTUATE),), message)
                  for name in bells]
    plans = [Component(f"p{index}", periodic_request=PeriodicRequest(
                 "S" + draw(st.sampled_from(sensors)), draw(st.integers(1, 6))))
             for index in range(draw(st.integers(2, 6)))]
    condition = st.builds(ConditionExpr, st.just("x"), st.sampled_from(CONDITION_OPS),
                          st.sampled_from(edges) | _READING if edges else _READING)
    task = st.sampled_from(["Bbell", "Bbell", "Bmute", *("L" + name for name in sensors)])
    task = st.one_of(*[task] * 4, st.sampled_from(sensors).map("S".__add__))
    watchers = [Component(f"w{index}", event_request=EventRequest(draw(task), draw(condition)))
                for index in range(draw(st.integers(0, 4)))]
    apart = draw(st.lists(st.booleans(), min_size=len(watchers), max_size=len(watchers)))
    together = [w for w, away in zip(watchers, apart) if not away]
    applications = [Application("a0", HERE, tuple(draw(st.permutations(plans + together))))]
    if len(together) < len(watchers):
        applications.append(Application("a1", HERE, tuple(
            w for w, away in zip(watchers, apart) if away)))
    return IoTSystemModel(
        "many_plans", platforms=tuple(platforms),
        networks=tuple(NetworkLink(name, "hub", protocol="CoAP", latency_ms=1.0, distance_m=10.0)
                       for name in [*sensors, "bell"]),
        applications=tuple(applications), contracts=tuple(contracts),
        sim_config=SimConfig(simulation_time=draw(st.integers(300, 5000)),
                             rng_seed=draw(st.integers(0, 2**64 - 1))))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_models_with_many_plans_match_the_reference_over_long_horizons(data):
    model = data.draw(many_plan_models())
    max_age = data.draw(st.integers(0, 5))
    halt_on = data.draw(st.sets(st.sampled_from(_devices(model))))
    expected = reference_run(model, max_age, halt_on)
    streamed = io.StringIO()
    for sink in (COLLECT, csv_event_sink(streamed), None):
        report = run_simulation(model, FreshnessPolicy(max_age), halt_on, sink=sink)
        for attribute in ("counts", "residual_mah", "lifetimes", "final_tick", "halted_by"):
            assert getattr(report, attribute) == getattr(expected, attribute), (attribute, sink)
        if sink is COLLECT:
            assert report.events_csv() == _csv(expected.events)
    assert streamed.getvalue() == _csv(expected.events)
